//! Calls every public function of this fixture tree, so `dead-pub` stays
//! quiet here and the tree pins only its own rule's findings.

fn main() {
    let mut row = sjc_cluster::sched::Row::default();
    sjc_cluster::sched::stamp(&mut row);
    let _ = sjc_cluster::sched::plan(4);
}
