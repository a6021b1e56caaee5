//! Calls every public function of this fixture tree, so `dead-pub` stays
//! quiet here and the tree pins only its own rule's findings.

use sjc_cluster::error::SimError;
use sjc_cluster::metrics::{label, retry};

fn describe(e: &SimError) -> &'static str {
    e.kind()
}

fn main() {
    sjc_cluster::ignore(Ok(()));
    sjc_cluster::drop_result();
    let _ = label(&retry(2));
}
