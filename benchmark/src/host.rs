//! What the numbers were measured on: a fingerprint of the host, carried
//! by every result so that walls from two machines are never compared raw.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use sjc_core::json::Json;

use crate::verify::splitmix64;

pub struct Fingerprint {
    pub nproc: usize,
    pub rustc: String,
    pub git_commit: String,
    /// Wall of a fixed pure-CPU loop; a pass time divided by it compares
    /// across hosts.
    pub calib_ms: f64,
}

/// Iterations of the calibration loop: about 40 ms on the reference host.
const CALIB_ITERS: u64 = 8_000_000;

/// A fixed chain of SplitMix64 steps: no memory traffic, no branches the
/// predictor can miss, nothing the program under test shares.
pub fn calib_ms() -> f64 {
    let start = Instant::now();
    let mut z = black_box(0x2015_0701u64);
    for _ in 0..CALIB_ITERS {
        z = splitmix64(z);
    }
    black_box(z);
    start.elapsed().as_secs_f64() * 1e3
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn fingerprint() -> Fingerprint {
    Fingerprint {
        nproc: sjc_par::hardware_threads(),
        rustc: first_line("rustc", &["-V"]),
        // "unknown" in a checkout that is not a git repository.
        git_commit: first_line("git", &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"]),
        // Best of three: the loop is what the host can do, not what a
        // neighbour left it.
        calib_ms: (0..3).map(|_| calib_ms()).fold(f64::INFINITY, f64::min),
    }
}

impl Fingerprint {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("nproc", Json::Int(self.nproc as u64)),
            ("rustc", Json::Str(self.rustc.clone())),
            ("git_commit", Json::Str(self.git_commit.clone())),
            ("calib_ms", Json::Float(self.calib_ms)),
        ])
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB; `None` where
/// `/proc` does not say.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok().map(|kb| kb / 1024.0)
}

/// The thread-budget column: a budget above the hardware threads is
/// oversubscription, not scaling data.
pub fn budget_label(threads: usize, nproc: usize) -> String {
    if threads > nproc {
        format!("{threads} (oversubscribed: {nproc} hardware threads)")
    } else {
        format!("{threads}")
    }
}
