//! Simulated HDFS: named files made of blocks placed on nodes.
//!
//! The block layer matters to the reproduction because the three systems
//! differ precisely in *how often* and *how* they touch HDFS (Fig. 1 of the
//! paper): HadoopGIS writes intermediates between its six preprocessing
//! steps, SpatialHadoop writes indexed block files plus `_master` metadata,
//! SpatialSpark reads input once. The simulated file system tracks file
//! sizes, record counts and block placement so engines can charge accurate
//! I/O and locality costs.

use std::collections::BTreeMap;

use crate::error::SimError;

/// Default HDFS block size (64 MB, the Hadoop-1.x / CDH-5 default the
/// paper's clusters used).
pub const DEFAULT_BLOCK_SIZE: u64 = 64 << 20;

/// Metadata of one block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    /// Node hosting the primary replica.
    pub primary_node: u32,
    pub bytes: u64,
}

/// Metadata of a simulated HDFS file.
#[derive(Debug, Clone, PartialEq)]
pub struct DfsFile {
    pub bytes: u64,
    pub records: u64,
    pub blocks: Vec<BlockMeta>,
}

/// The simulated distributed file system (namenode view).
#[derive(Debug, Clone, Default)]
pub struct SimHdfs {
    files: BTreeMap<String, DfsFile>,
    block_size: u64,
    next_node: u32,
    nodes: u32,
    /// Running totals for the trace layer.
    pub total_bytes_written: u64,
    pub total_bytes_read: u64,
}

impl SimHdfs {
    /// Creates a file system spanning `nodes` datanodes.
    pub fn new(nodes: u32) -> Self {
        SimHdfs {
            files: BTreeMap::new(),
            block_size: DEFAULT_BLOCK_SIZE,
            next_node: 0,
            nodes: nodes.max(1),
            total_bytes_written: 0,
            total_bytes_read: 0,
        }
    }

    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Creates (or replaces) a file of `bytes`/`records`, splitting it into
    /// blocks placed round-robin across datanodes.
    pub fn write_file(&mut self, name: &str, bytes: u64, records: u64) -> &DfsFile {
        let mut blocks = Vec::new();
        let mut remaining = bytes;
        loop {
            let b = remaining.min(self.block_size);
            blocks.push(BlockMeta { primary_node: self.next_node % self.nodes, bytes: b });
            self.next_node = (self.next_node + 1) % self.nodes;
            if remaining <= self.block_size {
                break;
            }
            remaining -= self.block_size;
        }
        // Block accounting: the split must preserve the file size exactly.
        #[cfg(feature = "sanitize")]
        debug_assert!(
            blocks.iter().map(|b| b.bytes).sum::<u64>() == bytes,
            "sanitize: block bytes do not sum to the file size for {name:?}"
        );
        self.total_bytes_written += bytes;
        let slot = self.files.entry(name.to_string()).or_insert_with(|| DfsFile {
            bytes: 0,
            records: 0,
            blocks: Vec::new(),
        });
        *slot = DfsFile { bytes, records, blocks };
        slot
    }

    /// Looks a file up, recording the read in the running totals.
    pub fn read_file(&mut self, name: &str) -> Result<DfsFile, SimError> {
        let f = self
            .files
            .get(name)
            .cloned()
            .ok_or_else(|| SimError::FileNotFound(name.to_string()))?;
        self.total_bytes_read += f.bytes;
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_split_into_blocks() {
        let mut fs = SimHdfs::new(4);
        let f = fs.write_file("big.tsv", 200 << 20, 1000).clone();
        assert_eq!(f.blocks.len(), 4, "200MB / 64MB = 4 blocks (last partial)");
        assert_eq!(f.blocks.iter().map(|b| b.bytes).sum::<u64>(), 200 << 20);
    }

    #[test]
    fn small_and_empty_files_get_one_block() {
        let mut fs = SimHdfs::new(4);
        assert_eq!(fs.write_file("small", 10, 1).blocks.len(), 1);
        assert_eq!(fs.write_file("empty", 0, 0).blocks.len(), 1);
    }

    #[test]
    fn blocks_round_robin_across_nodes() {
        let mut fs = SimHdfs::new(3);
        let f = fs.write_file("f", 300 << 20, 10).clone();
        let nodes: Vec<u32> = f.blocks.iter().map(|b| b.primary_node).collect();
        // 5 blocks over 3 nodes → every node hosts at least one.
        for n in 0..3 {
            assert!(nodes.contains(&n), "node {n} got no block: {nodes:?}");
        }
    }

    #[test]
    fn read_totals_accumulate() {
        let mut fs = SimHdfs::new(2);
        fs.write_file("a", 100, 5);
        fs.read_file("a").unwrap();
        fs.read_file("a").unwrap();
        assert_eq!(fs.total_bytes_read, 200);
        assert_eq!(fs.total_bytes_written, 100);
    }

    #[test]
    fn missing_file_errors() {
        let mut fs = SimHdfs::new(1);
        assert!(matches!(fs.read_file("nope"), Err(SimError::FileNotFound(_))));
    }

    #[test]
    fn overwrite_replaces_the_file() {
        let mut fs = SimHdfs::new(1);
        fs.write_file("f", 100, 1);
        fs.write_file("f", 50, 2);
        let f = fs.read_file("f").unwrap();
        assert_eq!((f.bytes, f.records), (50, 2));
    }
}
