//! Design-choice ablations: flip one choice at a time on shared substrates.
//!
//! ```text
//! cargo run --release --example design_ablation [scale]
//! ```
//!
//! The paper compares whole systems, so its numbers blend platform, access
//! model, geometry library and join algorithm. Because this reproduction
//! runs all three systems on the same substrates, each factor can be
//! isolated — these are the experiments §II reasons about but never runs.

use sjc_core::ablation;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(5e-4);
    let seed = 20150701;

    println!("Design-choice ablations (simulated seconds; scale {scale:.0e})\n");
    print!("{}", ablation::report(scale, seed));
}
