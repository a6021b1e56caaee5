//! Fixture: four public functions with no caller outside test code.

mod grid;

fn cells() -> u64 {
    grid::SIZE * grid::SIZE
}

/// Referenced only from `tests/` and from this file's test module.
pub fn only_tested(x: u64) -> u64 {
    x + 1
}

/// Referenced nowhere.
pub fn unreferenced() -> u64 {
    7
}

/// Its only same-named reference is in `crates/cluster`, which never
/// names `sjc_geom`.
pub fn wrong_crate() -> u64 {
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_tested_adds_one() {
        assert_eq!(only_tested(1), 2);
    }
}
