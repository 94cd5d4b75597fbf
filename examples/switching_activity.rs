//! Switching-activity study: how much does a conventional delay model
//! overestimate the activity (and therefore the dynamic power) of a
//! glitch-heavy circuit?
//!
//! The paper's Table 1 reports 40–50 % overestimation on the 4×4 multiplier.
//! This example sweeps random operand sequences of increasing length and
//! multiplier sizes and prints the same metric, demonstrating that the
//! effect is systematic rather than specific to the two published
//! sequences.
//!
//! ```text
//! cargo run --release --example switching_activity
//! ```

use halotis::experiments::{multiplier_fixture_sized, multiplier_stimulus, sequence_label};
use halotis::sim::{CompiledCircuit, SimulationConfig};

/// Small deterministic pseudo-random operand generator (SplitMix64), so the
/// example's output is reproducible without extra dependencies.
fn operands(seed: u64, count: usize, bits: usize) -> Vec<(u64, u64)> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mask = (1u64 << bits) - 1;
    (0..count).map(|_| (next() & mask, next() & mask)).collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("| size | vectors | events DDM | events CDM | overestimation | filtered DDM |");
    println!("|------|---------|------------|------------|----------------|--------------|");
    for &(a_bits, b_bits) in &[(4usize, 4usize), (6, 6), (8, 8)] {
        let fixture = multiplier_fixture_sized(a_bits, b_bits);
        // One compilation per multiplier size serves every vector count.
        let circuit = CompiledCircuit::compile(&fixture.netlist, &fixture.library)?;
        let mut state = circuit.new_state();
        for &vectors in &[5usize, 10, 20] {
            let pairs = operands(0xDA7E_2001 + vectors as u64, vectors, a_bits.min(b_bits));
            let stimulus = multiplier_stimulus(&fixture.ports, &pairs);
            let ddm = circuit.run_stats(&mut state, &stimulus, &SimulationConfig::ddm())?;
            let cdm = circuit.run_stats(&mut state, &stimulus, &SimulationConfig::cdm())?;
            println!(
                "| {a_bits}x{b_bits}  | {vectors:7} | {:10} | {:10} | {:13.0}% | {:12} |",
                ddm.events_scheduled,
                cdm.events_scheduled,
                ddm.overestimation_percent(&cdm),
                ddm.events_filtered,
            );
            if vectors == 5 && a_bits == 4 {
                println!("  (sequence {})", sequence_label(&pairs));
            }
        }
    }
    Ok(())
}
