//! Calls every public function of this fixture tree, so `dead-pub` stays
//! quiet here and the tree pins only its own rule's findings.

use sjc_cluster::ledger::{converted, converted_sink, same_unit_total, Row};
use sjc_core::metrics as core_metrics;

fn main() {
    let mut row = Row::default();
    let _ = same_unit_total(1, 2) + converted(3, 4);
    converted_sink(&mut row, 3, 4);
    let _ = core_metrics::agreeing_total(1, 2) + core_metrics::right_argument(3);
    core_metrics::converted_sink(&mut row, 3, 4);
}
