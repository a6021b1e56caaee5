//! Fixture: an example is a caller.

fn main() {
    println!("{}", sjc_geom::called_from_example());
}
