//! Fixture: a cross-crate caller.

use sjc_geom::called_from_index;

fn probe() -> u64 {
    called_from_index() + 1
}
