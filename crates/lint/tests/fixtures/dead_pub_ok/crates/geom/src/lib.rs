//! Fixture: every public function has a caller the rule accepts.

/// Called from `crates/index`, which imports `sjc_geom`.
pub fn called_from_index() -> u64 {
    1
}

/// Called from `examples/`.
pub fn called_from_example() -> u64 {
    2
}

/// Named only by a test module under `benchmark/src`, a package that
/// compiles against this API.
pub fn called_from_benchmark_test() -> u64 {
    3
}

/// Only a test calls it, and an audited allow says why it stays public.
// sjc-lint: allow(dead-pub) — `oracle_agrees` in this file compares against it
pub fn oracle() -> u64 {
    4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_agrees() {
        assert_eq!(oracle(), 4);
    }
}
