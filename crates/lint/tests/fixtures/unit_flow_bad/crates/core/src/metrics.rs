//! Fixture: units crossing call boundaries wrongly — a returned unit mixed
//! with another, a returned unit reaching an `_ns` sink, and an argument in
//! the wrong unit. None of the callee *names* carry a unit; only the
//! summarized signatures (return units inferred through the bodies,
//! parameter units from the declarations) expose the mixing.

pub fn mixed_total(task_ns: u64, n: u64) -> u64 {
    task_ns + moved(n)
}

pub fn unconverted_sink(row: &mut Row, n: u64) {
    row.sim_ns = step(n);
}

pub fn wrong_argument(read_bytes: u64) -> u64 {
    scale(read_bytes)
}

fn moved(n: u64) -> u64 {
    let out_bytes = n;
    out_bytes
}

fn step(n: u64) -> u64 {
    let got_bytes = n;
    got_bytes
}

fn scale(cost_ns: u64) -> u64 {
    cost_ns
}
