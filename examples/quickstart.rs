//! Quickstart: build a tiny circuit, drive it, simulate it with the IDDM
//! and inspect the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use halotis::core::{LogicLevel, Time, TimeDelta};
use halotis::netlist::{technology, CellKind, NetlistBuilder};
use halotis::sim::{CompiledCircuit, SimulationConfig};
use halotis::waveform::ascii::{render_trace, AsciiOptions};
use halotis::waveform::{vcd, Stimulus};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe a circuit: a NAND gate whose output feeds an inverter.
    let mut builder = NetlistBuilder::new("quickstart");
    let a = builder.add_input("a");
    let b = builder.add_input("b");
    let nand_out = builder.add_net("nand_out");
    let y = builder.add_net("y");
    builder.add_gate(CellKind::Nand2, "u1", &[a, b], nand_out)?;
    builder.add_gate(CellKind::Inv, "u2", &[nand_out], y)?;
    builder.mark_output(y);
    let netlist = builder.build()?;

    // 2. Pick the synthetic 0.6 µm library the paper-style experiments use.
    let library = technology::cmos06();

    // 3. Drive the inputs: `a` rises at 1 ns, `b` pulses briefly at 3 ns.
    let mut stimulus = Stimulus::new(library.default_input_slew());
    stimulus.set_initial("a", LogicLevel::Low);
    stimulus.set_initial("b", LogicLevel::High);
    stimulus.drive("a", Time::from_ns(1.0), LogicLevel::High);
    stimulus.drive("b", Time::from_ns(3.0), LogicLevel::Low);
    stimulus.drive("b", Time::from_ns(3.3), LogicLevel::High);

    // 4. Compile the circuit once, then simulate with the inertial and
    //    degradation delay model in a fresh state arena.
    let circuit = CompiledCircuit::compile(&netlist, &library)?;
    let mut state = circuit.new_state();
    let result = circuit.run_with(&mut state, &stimulus, &SimulationConfig::ddm())?;

    // 5. Look at what happened.
    println!("simulation statistics: {}", result.stats());
    let window = AsciiOptions::new(Time::ZERO, Time::from_ns(6.0), 72);
    println!("{}", render_trace(&result.full_trace(), &window));
    let y_wave = result.ideal_waveform("y").expect("y exists");
    println!(
        "y settles to {} after {} observable edges",
        y_wave.final_level(),
        y_wave.edge_count()
    );
    println!(
        "narrow glitches on y (< 500 ps): {}",
        y_wave.glitch_count(TimeDelta::from_ps(500.0))
    );

    // 6. Export a VCD for a waveform viewer.
    let vcd_text = vcd::to_string("quickstart", &result.output_trace());
    println!("--- VCD preview ---");
    for line in vcd_text.lines().take(12) {
        println!("{line}");
    }
    Ok(())
}
