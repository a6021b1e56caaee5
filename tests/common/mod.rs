//! The snapshot check every snapshot test file shares.

use std::path::Path;
use std::sync::Mutex;

use sjc_bench::snapshots::{first_difference, Snapshot, SNAPSHOTS};

/// The text of a checked-in file, relative to the repo root.
pub fn checked_in(name: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(name))
        .unwrap_or_else(|e| panic!("{name} is checked in: {e}"))
}

/// Re-derives every `SNAPSHOTS` member `select` picks at each of its
/// [`Snapshot::budgets`] and panics once, naming every file that moved
/// with its first differing line.
///
/// Two workers render the due members piece by piece: at one thread a
/// piece uses one core, and the slowest member alone outlasts the rest.
pub fn assert_rederived(select: impl Fn(&Snapshot) -> bool) {
    let chosen: Vec<&Snapshot> = SNAPSHOTS.iter().filter(|s| select(s)).collect();
    assert!(chosen.iter().any(|s| !s.budgets.is_empty()), "the selection derives no snapshot");
    let mut budgets: Vec<usize> = chosen.iter().flat_map(|s| s.budgets.iter().copied()).collect();
    budgets.sort_unstable();
    budgets.dedup();
    let mut moved = Vec::new();
    for threads in budgets {
        sjc_par::set_global_threads(threads);
        let due: Vec<_> = chosen.iter().filter(|s| s.budgets.contains(&threads)).collect();
        let pieces = due.iter().enumerate();
        let pieces = pieces.flat_map(|(i, s)| s.pieces().into_iter().map(move |p| (i, p)));
        let queue = Mutex::new(pieces.enumerate());
        let work = || {
            let mut done = Vec::new();
            loop {
                let next = queue.lock().expect("no worker panicked").next();
                let Some((order, (snapshot, piece))) = next else { return done };
                done.push((order, snapshot, piece()));
            }
        };
        let mut done = std::thread::scope(|s| {
            let other = s.spawn(work);
            let mut done = work();
            done.extend(other.join().expect("a derivation panicked"));
            done
        });
        done.sort_by_key(|(order, ..)| *order);
        for (i, snapshot) in due.iter().enumerate() {
            let fragments = done.iter().filter(|(_, s, _)| *s == i).map(|(.., f)| f.clone());
            let files = snapshot.assemble(fragments);
            for (k, path) in snapshot.paths.iter().enumerate() {
                let diff = match &files {
                    Ok(files) => first_difference(&files[k], &checked_in(path)),
                    Err(e) => Some(e.clone()),
                };
                moved.extend(diff.map(|d| format!("  {path} at {threads} threads: {d}")));
            }
        }
    }
    sjc_par::set_global_threads(0);
    assert!(
        moved.is_empty(),
        "simulated output moved; if on purpose, rewrite the set with \
         `cargo run --release -p sjc-bench --bin perfsnap`:\n{}",
        moved.join("\n")
    );
}
