//! Fixture: a harness reference is not a caller.

#[test]
fn only_tested_from_the_harness() {
    assert_eq!(sjc_geom::only_tested(2), 3);
}
