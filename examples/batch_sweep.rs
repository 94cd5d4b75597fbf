//! Compile-once/run-many in action: a Monte-Carlo pulse-width scan executed
//! by the parallel [`BatchRunner`] over one shared compiled circuit.
//!
//! A 6-stage inverter chain is compiled a single time; 64 pulse scenarios
//! (random widths around the chain's filtering region, under both delay
//! models) then run across all available hardware threads, each worker
//! reusing one state arena.  Each scenario streams into a waveform recorder
//! paired with a power accumulator; the example prints the per-model
//! survival and dynamic-energy statistics and the batch throughput.
//!
//! ```text
//! cargo run --release --example batch_sweep
//! ```

use halotis::core::{LogicLevel, Time, TimeDelta};
use halotis::netlist::{generators, technology};
use halotis::sim::{
    BatchRunner, CompiledCircuit, PowerAccumulator, Scenario, SimulationConfig, WaveformRecorder,
};
use halotis::waveform::Stimulus;

/// Deterministic SplitMix64 so the sweep is reproducible without extra
/// dependencies.
fn random_widths_ps(seed: u64, count: usize) -> Vec<f64> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        z
    };
    (0..count)
        // 100 ps .. 2 ns: spans "always filtered" to "always survives".
        .map(|_| 100.0 + (next() % 1900) as f64)
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = generators::inverter_chain(6);
    let library = technology::cmos06();
    let circuit = CompiledCircuit::compile(&netlist, &library)?;

    let widths = random_widths_ps(0x2001, 32);
    let scenarios: Vec<Scenario> = widths
        .iter()
        .flat_map(|&width_ps| {
            let mut stimulus = Stimulus::new(library.default_input_slew());
            stimulus.set_initial("in", LogicLevel::Low);
            stimulus.drive("in", Time::from_ns(2.0), LogicLevel::High);
            stimulus.drive(
                "in",
                Time::from_ns(2.0) + TimeDelta::from_ps(width_ps),
                LogicLevel::Low,
            );
            Scenario::both_models(
                format!("{width_ps:.0}ps"),
                stimulus,
                SimulationConfig::default(),
            )
        })
        .collect();

    let runner = BatchRunner::new();
    println!(
        "circuit: {} ({} gates), {} scenarios, {} worker thread(s)",
        netlist.name(),
        netlist.gate_count(),
        scenarios.len(),
        runner.threads()
    );

    let report = runner.run_observed(&circuit, &scenarios, |_, _| {
        (WaveformRecorder::new(), PowerAccumulator::new())
    });
    let out = netlist.net_id("out").expect("the chain has an `out` net");
    let mut survived = [0usize; 2];
    let mut filtered = [0usize; 2];
    let mut energy_joules = [0.0f64; 2];
    for chunk in report.outcomes().chunks(2) {
        // Scenario::both_models pairs: element 0 is DDM, element 1 is CDM.
        for (model, outcome) in chunk.iter().enumerate() {
            outcome.stats.as_ref().map_err(|error| error.clone())?;
            let (recorder, power) = &outcome.observer;
            let pulses = recorder
                .waveform(out)
                .map(|w| w.ideal_half_swing(library.vdd()).edge_count() >= 2)
                .unwrap_or(false);
            if pulses {
                survived[model] += 1;
            } else {
                filtered[model] += 1;
            }
            energy_joules[model] += power.total_joules();
        }
    }
    println!("\npulse survival at the far end of the chain:");
    for (model, label) in ["DDM", "CDM"].into_iter().enumerate() {
        println!(
            "  {label}: {} survived, {} filtered, {:.1} pJ switched",
            survived[model],
            filtered[model],
            energy_joules[model] * 1e12
        );
    }
    println!(
        "CDM overestimates the sweep's dynamic energy by {:.0} %",
        (energy_joules[1] - energy_joules[0]) / energy_joules[0] * 100.0
    );
    let totals = report.totals();
    println!(
        "\nbatch: {} scenarios in {:?} ({} events processed, {} filtered at inputs)",
        report.len(),
        report.wall_time(),
        totals.events_processed,
        totals.events_filtered
    );
    assert_eq!(report.failed(), 0);
    // The degradation model can only remove pulses relative to CDM.
    assert!(survived[0] <= survived[1]);
    Ok(())
}
