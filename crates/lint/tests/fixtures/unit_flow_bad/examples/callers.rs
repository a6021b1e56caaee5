//! Calls every public function of this fixture tree, so `dead-pub` stays
//! quiet here and the tree pins only its own rule's findings.

use sjc_cluster::ledger::{mixed_through_flow, mixed_total, unconverted_sink, Row};
use sjc_core::metrics as core_metrics;

fn main() {
    let mut row = Row::default();
    let _ = mixed_total(1, 2) + mixed_through_flow(1, 2);
    unconverted_sink(&mut row, 3);
    let _ = core_metrics::mixed_total(1, 2) + core_metrics::wrong_argument(3);
    core_metrics::unconverted_sink(&mut row, 3);
}
