//! Fixture: a function named like its module.

pub const SIZE: u64 = 4;

/// Only the module path `grid::` names it, and a path prefix is not a call.
pub fn grid() -> u64 {
    SIZE
}
