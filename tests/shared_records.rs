//! One copy of each generated dataset: every input prepared from a cached
//! dataset shares its records and their TSV line lengths.

use sjc_core::experiment::Workload;
use sjc_core::framework::JoinInput;
use sjc_data::tsv::tsv_line_lens;
use sjc_data::{generate_cached, DatasetId, ScaledDataset};

/// `input` holds `id`'s records at `(scale, seed)` exactly as a fresh
/// generation builds them: dense ids, each MBR its geometry's.
fn assert_generated(input: &JoinInput, id: DatasetId, scale: f64, seed: u64) {
    let fresh = ScaledDataset::generate(id, scale, seed);
    assert_eq!(input.records.len(), fresh.len(), "{id:?}");
    for (i, (got, want)) in input.records.iter().zip(&fresh.records).enumerate() {
        assert_eq!(got.id, i as u64, "{id:?}: record {i}'s id");
        assert_eq!(got.mbr, got.geom.mbr(), "{id:?}: record {i}'s MBR");
        assert_eq!(got, want, "{id:?}: record {i}");
    }
}

#[test]
fn prepared_inputs_share_the_cached_records_and_line_lengths() {
    const SCALE: f64 = 1.5e-4;
    const SEED: u64 = 0x5AED;
    for w in [Workload::taxi1m_nycb(), Workload::edge01_linearwater01()] {
        let (l1, r1) = w.prepare(SCALE, SEED);
        let (l2, r2) = w.prepare(SCALE, SEED);
        for (first, second, id) in [(&l1, &l2, w.left), (&r1, &r2, w.right)] {
            let ds = generate_cached(id, SCALE, SEED);
            assert_eq!(first.records.as_ptr(), ds.records.as_ptr(), "{id:?}: first input");
            assert_eq!(second.records.as_ptr(), ds.records.as_ptr(), "{id:?}: second input");

            let lens = tsv_line_lens(&first.records).as_ptr();
            assert_eq!(second.records.tsv_lines(), Some(ds.len()), "{id:?}: built once");
            assert_eq!(tsv_line_lens(&second.records).as_ptr(), lens, "{id:?}: second input");
            assert_eq!(tsv_line_lens(&ds.records).as_ptr(), lens, "{id:?}: cached dataset");

            assert_generated(first, id, SCALE, SEED);
            assert_generated(second, id, SCALE, SEED);
        }
    }
}
