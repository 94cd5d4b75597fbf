//! The paper's evaluation workload: the 4×4 array multiplier driven with the
//! Fig. 6 multiplication sequence, simulated with and without the
//! degradation model, and compared against the electrical reference.
//!
//! ```text
//! cargo run --release --example multiplier_glitches
//! ```

use halotis::analog::{AnalogConfig, AnalogSimulator};
use halotis::core::{Time, TimeDelta};
use halotis::experiments::{multiplier_fixture, multiplier_stimulus, SEQUENCE_FIG6};
use halotis::sim::{CompiledCircuit, SimulationConfig};
use halotis::waveform::compare::{compare_traces, switching_activity};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fixture = multiplier_fixture();
    println!(
        "circuit: {} ({} gates, {} nets)",
        fixture.netlist.name(),
        fixture.netlist.gate_count(),
        fixture.netlist.net_count()
    );
    for (kind, count) in fixture.netlist.gate_histogram() {
        println!("  {kind:6} x {count}");
    }

    let stimulus = multiplier_stimulus(&fixture.ports, SEQUENCE_FIG6);
    let circuit = CompiledCircuit::compile(&fixture.netlist, &fixture.library)?;

    // HALOTIS with and without degradation, sharing one compiled circuit
    // and one state arena.
    let mut state = circuit.new_state();
    let ddm = circuit.run_with(&mut state, &stimulus, &SimulationConfig::ddm())?;
    let cdm = circuit.run_with(&mut state, &stimulus, &SimulationConfig::cdm())?;
    println!("\nHALOTIS-DDM: {}", ddm.stats());
    println!("HALOTIS-CDM: {}", cdm.stats());
    println!(
        "CDM event overestimation: {:.0} %",
        ddm.stats().overestimation_percent(cdm.stats())
    );

    // Electrical reference for the same stimulus.
    let analog = AnalogSimulator::new(&fixture.netlist, &fixture.library).run(
        &stimulus,
        &AnalogConfig::default()
            .with_time_step(TimeDelta::from_ps(2.0))
            .with_end_time(Time::from_ns(25.0)),
    )?;

    let reference = analog.output_trace();
    let ddm_cmp = compare_traces(&reference, &ddm.output_trace(), TimeDelta::from_ns(1.0));
    let cdm_cmp = compare_traces(&reference, &cdm.output_trace(), TimeDelta::from_ns(1.0));
    println!(
        "\nagainst the electrical reference ({} output edges):",
        switching_activity(&reference)
    );
    println!(
        "  DDM: {} edges, {:.0} % extra, final values agree: {}",
        ddm_cmp.test_edges,
        ddm_cmp.overestimation_percent(),
        ddm_cmp.final_levels_agree
    );
    println!(
        "  CDM: {} edges, {:.0} % extra, final values agree: {}",
        cdm_cmp.test_edges,
        cdm_cmp.overestimation_percent(),
        cdm_cmp.final_levels_agree
    );
    println!(
        "\nwall time: analog {:?}, DDM {:?}, CDM {:?}",
        analog.wall_time(),
        ddm.wall_time(),
        cdm.wall_time()
    );
    Ok(())
}
