//! Fixture: a same-named call in a crate that does not import `sjc_geom`
//! resolves to this crate's own function, not to geom's.

fn wrong_crate() -> u64 {
    1
}

fn total() -> u64 {
    wrong_crate() + 1
}
