//! Reproduction of the paper's **Table 2**: CPU time of the three
//! simulators on the two multiplication sequences.
//!
//! The paper reports (on its 2001 workstation, in seconds):
//!
//! | sequence | HSPICE | HALOTIS-DDM | HALOTIS-CDM |
//! |---|---|---|---|
//! | 0x0, 7x7, 5xA, Ex6, FxF | 112.9 | 0.39 | 0.55 |
//! | 0x0, FxF, 0x0, FxF, ... | 123.0 | 0.48 | 0.76 |
//!
//! The shape to reproduce: the electrical reference is orders of magnitude
//! slower than the event-driven runs, and HALOTIS-DDM is not slower than
//! HALOTIS-CDM.  Run with `cargo bench -p halotis-bench table2`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use halotis::analog::{AnalogConfig, AnalogSimulator};
use halotis::core::{Time, TimeDelta};
use halotis::experiments::{
    multiplier_fixture, multiplier_stimulus, sequence_label, SEQUENCE_FIG6, SEQUENCE_FIG7,
};
use halotis::sim::{classical, CompiledCircuit, SimulationConfig};
use std::hint::black_box;

fn bench_table2(c: &mut Criterion) {
    let fixture = multiplier_fixture();
    let mut group = c.benchmark_group("table2_cpu_time");
    group.sample_size(10);

    for pairs in [SEQUENCE_FIG6, SEQUENCE_FIG7] {
        let label = sequence_label(pairs);
        let stimulus = multiplier_stimulus(&fixture.ports, pairs);

        group.bench_with_input(
            BenchmarkId::new("halotis_ddm", &label),
            &stimulus,
            |b, stimulus| {
                let config = SimulationConfig::ddm();
                b.iter(|| {
                    let circuit =
                        CompiledCircuit::compile(&fixture.netlist, &fixture.library).unwrap();
                    let mut state = circuit.new_state();
                    black_box(circuit.run_with(&mut state, stimulus, &config).unwrap());
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("halotis_cdm", &label),
            &stimulus,
            |b, stimulus| {
                let config = SimulationConfig::cdm();
                b.iter(|| {
                    let circuit =
                        CompiledCircuit::compile(&fixture.netlist, &fixture.library).unwrap();
                    let mut state = circuit.new_state();
                    black_box(circuit.run_with(&mut state, stimulus, &config).unwrap());
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("classical", &label),
            &stimulus,
            |b, stimulus| {
                b.iter(|| {
                    black_box(
                        classical::run(
                            &fixture.netlist,
                            &fixture.library,
                            stimulus,
                            &SimulationConfig::cdm(),
                        )
                        .unwrap(),
                    );
                })
            },
        );
        // The analog reference is benched at a coarser (4 ps) step so the
        // harness completes in reasonable time; even so it remains orders of
        // magnitude slower per run than the event-driven engines.
        group.bench_with_input(
            BenchmarkId::new("analog_reference", &label),
            &stimulus,
            |b, stimulus| {
                let analog = AnalogSimulator::new(&fixture.netlist, &fixture.library);
                let config = AnalogConfig::default()
                    .with_time_step(TimeDelta::from_ps(4.0))
                    .with_end_time(Time::from_ns(25.0));
                b.iter(|| {
                    black_box(analog.run(stimulus, &config).unwrap());
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
