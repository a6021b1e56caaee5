//! Calls every public function of this fixture tree, so `dead-pub` stays
//! quiet here and the tree pins only its own rule's findings.

use sjc_cluster::metrics::{ghost, label, retry};

fn main() {
    if let Err(e) = sjc_cluster::fail(3) {
        let _ = e.kind();
    }
    let _ = sjc_cluster::render(&[1, 2]);
    sjc_cluster::best_effort();
    let _ = (label(&retry(2)), label(&ghost(1)));
}
