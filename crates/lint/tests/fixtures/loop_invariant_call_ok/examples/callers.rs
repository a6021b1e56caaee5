//! Calls every public function of this fixture tree, so `dead-pub` stays
//! quiet here and the tree pins only its own rule's findings.

fn main() {
    let _ = sjc_index::probe::drive(&[vec![1, 2]]);
}
