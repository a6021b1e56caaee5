//! Output verification: what a cell run produced, and whether it is right.
//!
//! A cell run fails if it panics or runs past the watchdog; returns pairs
//! that differ from the brute-force oracle; differs in outcome kind, pairs
//! or simulated time from the same cell's first run (or from its 1-thread
//! replay); returns, under faults, other pairs than its unfaulted twin; or
//! breaks the paper's outcome pattern.

use sjc_core::framework::{JoinInput, JoinPredicate};
use sjc_geom::GeometryEngine;

/// A cell run slower than this counts as failed, whatever it returned.
pub const WATCHDOG_MS: f64 = 60_000.0;

/// Order-independent signature of a pair set: the count, and the wrapping
/// sum of a 64-bit mix of every pair. A sum (not an xor) so a pair emitted
/// twice changes the hash as well as the count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairSig {
    pub count: u64,
    pub hash: u64,
}

pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn pair_sig(pairs: &[(u64, u64)]) -> PairSig {
    let hash = pairs
        .iter()
        .fold(0u64, |acc, &(l, r)| acc.wrapping_add(splitmix64(splitmix64(l) ^ r.rotate_left(32))));
    PairSig { count: pairs.len() as u64, hash }
}

/// The brute-force reference: `direct_join` over the whole inputs.
pub fn oracle(left: &JoinInput, right: &JoinInput) -> PairSig {
    pair_sig(&sjc_core::common::direct_join(
        &GeometryEngine::jts(),
        JoinPredicate::Intersects,
        &left.records,
        &right.records,
    ))
}

/// What one cell run produced. `kind` is `ok`, the simulator's failure
/// label (`broken pipe`, `out of memory`, ...) or `panic`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    pub kind: String,
    pub pairs: u64,
    /// `None` where the program hands back only a count (the table grid).
    pub hash: Option<u64>,
    pub sim_ns: u64,
}

impl Outcome {
    pub fn failed(kind: &str) -> Outcome {
        Outcome { kind: kind.to_string(), pairs: 0, hash: None, sim_ns: 0 }
    }

    pub fn is_ok(&self) -> bool {
        self.kind == "ok"
    }

    fn matches(&self, sig: PairSig) -> bool {
        self.pairs == sig.count && self.hash.is_none_or(|h| h == sig.hash)
    }
}

/// The outcome the paper reports for a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Ok,
    Fails(&'static str),
    /// No pattern to hold the cell to (the tiny table grid, smoke scales).
    Any,
}

/// Tallies cell runs and their failures, and prints each failing cell
/// with the expected and the actual value.
pub struct Checker {
    labels: Vec<String>,
    runs: Vec<u64>,
    bad_runs: Vec<u64>,
    /// A cell whose reference outcome itself is wrong: every run of it
    /// fails, since every run is held equal to the reference.
    bad_cell: Vec<bool>,
    reference: Vec<Option<Outcome>>,
    pub printed: usize,
}

/// Failure lines printed in full; further ones are only counted.
const MAX_PRINTED: usize = 20;

impl Checker {
    pub fn new(labels: Vec<String>) -> Checker {
        let n = labels.len();
        Checker {
            labels,
            runs: vec![0; n],
            bad_runs: vec![0; n],
            bad_cell: vec![false; n],
            reference: vec![None; n],
            printed: 0,
        }
    }

    fn report(&mut self, cell: usize, what: &str, expected: &str, actual: &str) {
        self.printed += 1;
        if self.printed <= MAX_PRINTED {
            eprintln!("FAIL {}: {what}: expected {expected}, got {actual}", self.labels[cell]);
        }
    }

    /// Records one run of `cell` made in pass `pass`; the first run of a
    /// cell becomes its reference.
    pub fn run(&mut self, pass: &str, cell: usize, wall_ms: f64, outcome: &Outcome) {
        self.runs[cell] += 1;
        let mut bad = false;
        if outcome.kind == "panic" {
            self.report(cell, &format!("{pass} pass"), "a result", "a panic");
            bad = true;
        }
        if wall_ms > WATCHDOG_MS {
            self.report(cell, &format!("{pass} pass"), "under 60 s", &format!("{wall_ms:.0} ms"));
            bad = true;
        }
        match self.reference[cell].clone() {
            None => self.reference[cell] = Some(outcome.clone()),
            Some(first) if first != *outcome => {
                self.report(
                    cell,
                    &format!("{pass} pass differs from the first pass"),
                    &format!("{first:?}"),
                    &format!("{outcome:?}"),
                );
                bad = true;
            }
            Some(_) => {}
        }
        if bad {
            self.bad_runs[cell] += 1;
        }
    }

    /// Holds the cell's reference outcome to the paper's pattern, and its
    /// pairs to the oracle and, for a faulted cell, to its unfaulted twin.
    pub fn cell(&mut self, cell: usize, expect: Expect, oracle: PairSig, twin: Option<PairSig>) {
        let Some(first) = self.reference[cell].clone() else { return };
        let pattern_ok = match expect {
            Expect::Ok => first.is_ok(),
            Expect::Fails(kind) => first.kind == kind,
            Expect::Any => true,
        };
        if !pattern_ok {
            self.report(cell, "paper outcome pattern", &format!("{expect:?}"), &first.kind);
            self.bad_cell[cell] = true;
        }
        if first.is_ok() && !first.matches(oracle) {
            self.report(
                cell,
                "pairs vs brute-force oracle",
                &format!("{oracle:?}"),
                &format!("{first:?}"),
            );
            self.bad_cell[cell] = true;
        }
        if let Some(twin) = twin {
            if !first.is_ok() || !first.matches(twin) {
                self.report(
                    cell,
                    "faulted pairs vs unfaulted twin",
                    &format!("{twin:?}"),
                    &format!("{first:?}"),
                );
                self.bad_cell[cell] = true;
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.runs.iter().sum()
    }

    pub fn failed(&self) -> u64 {
        (0..self.runs.len())
            .map(|i| if self.bad_cell[i] { self.runs[i] } else { self.bad_runs[i] })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_hash_ignores_order() {
        let pairs: Vec<(u64, u64)> = (0..500).map(|i| (i * 7 % 101, i * 13 % 89)).collect();
        let mut reversed = pairs.clone();
        reversed.reverse();
        let mut rotated = pairs.clone();
        rotated.rotate_left(123);
        assert_eq!(pair_sig(&pairs), pair_sig(&reversed));
        assert_eq!(pair_sig(&pairs), pair_sig(&rotated));
    }

    #[test]
    fn pair_hash_separates_near_misses() {
        let base: Vec<(u64, u64)> = (0..200).map(|i| (i, i + 1)).collect();
        let sig = pair_sig(&base);
        // Swapped sides, one id off, one pair dropped, one pair doubled.
        let swapped: Vec<(u64, u64)> = base.iter().map(|&(l, r)| (r, l)).collect();
        assert_ne!(pair_sig(&swapped).hash, sig.hash);
        let mut off = base.clone();
        off[17].1 += 1;
        assert_ne!(pair_sig(&off).hash, sig.hash);
        assert_ne!(pair_sig(&base[1..]), sig);
        let mut doubled = base.clone();
        doubled.push(base[3]);
        assert_ne!(pair_sig(&doubled).hash, sig.hash);
        // No two of 10 000 single pairs on a grid share a hash.
        let mut seen = std::collections::BTreeSet::new();
        for l in 0..100 {
            for r in 0..100 {
                assert!(seen.insert(pair_sig(&[(l, r)]).hash), "collision at ({l}, {r})");
            }
        }
        assert_eq!(pair_sig(&[]), PairSig { count: 0, hash: 0 });
    }

    fn ok(pairs: u64, hash: u64, sim_ns: u64) -> Outcome {
        Outcome { kind: "ok".to_string(), pairs, hash: Some(hash), sim_ns }
    }

    #[test]
    fn checker_counts_failed_runs() {
        let mut c = Checker::new(vec!["a".into(), "b".into(), "c".into()]);
        let sig = PairSig { count: 3, hash: 9 };
        for pass in ["cold", "timed", "timed"] {
            c.run(pass, 0, 1.0, &ok(3, 9, 100));
            c.run(pass, 1, 1.0, &Outcome::failed("broken pipe"));
        }
        // Cell c: its second run moves simulated time, its third panics.
        c.run("cold", 2, 1.0, &ok(3, 9, 100));
        c.run("timed", 2, 1.0, &ok(3, 9, 101));
        c.run("timed", 2, 1.0, &Outcome::failed("panic"));
        c.cell(0, Expect::Ok, sig, Some(sig));
        c.cell(1, Expect::Fails("broken pipe"), sig, None);
        c.cell(2, Expect::Any, sig, None);
        assert_eq!((c.attempted(), c.failed()), (9, 2));
        // A wrong oracle fails every run of the cell; a slow run fails once.
        c.cell(0, Expect::Ok, PairSig { count: 3, hash: 8 }, None);
        c.run("timed", 1, WATCHDOG_MS + 1.0, &Outcome::failed("broken pipe"));
        assert_eq!((c.attempted(), c.failed()), (10, 6));
        // A broken pattern and a faulted cell that loses pairs.
        c.cell(1, Expect::Ok, sig, None);
        c.cell(2, Expect::Any, sig, Some(PairSig { count: 2, hash: 9 }));
        assert_eq!(c.failed(), 10);
    }

    #[test]
    fn count_only_outcomes_match_on_the_count() {
        let grid = Outcome { kind: "ok".to_string(), pairs: 3, hash: None, sim_ns: 1 };
        assert!(grid.matches(PairSig { count: 3, hash: 77 }));
        assert!(!grid.matches(PairSig { count: 4, hash: 77 }));
    }
}
