//! Ablation: per-input inertial handling (HALOTIS) versus output-side
//! classical inertial filtering, on the paper's Fig. 1 circuit.
//!
//! Correctness of the two approaches is compared by `reproduce -- fig1` and
//! the `figure1_behaviour` integration test; this bench measures their cost
//! on the same workload, showing that the richer per-input treatment does
//! not make the simulator slower than the classical baseline.  Run with
//! `cargo bench -p halotis-bench ablation_inertial`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use halotis::core::TimeDelta;
use halotis::netlist::{generators, technology};
use halotis::sim::{classical, CompiledCircuit, SimulationConfig};
use halotis_bench::pulse_stimulus;
use std::hint::black_box;

fn bench_inertial_handling(c: &mut Criterion) {
    let (netlist, _nets) = generators::figure1_default();
    let library = technology::cmos06();
    let mut group = c.benchmark_group("ablation_inertial");
    for width_ps in [200.0f64, 400.0, 1000.0] {
        let stimulus = pulse_stimulus(&library, TimeDelta::from_ps(width_ps));
        group.bench_with_input(
            BenchmarkId::new("halotis_per_input", format!("{width_ps}ps")),
            &stimulus,
            |b, stimulus| {
                let config = SimulationConfig::ddm();
                b.iter(|| {
                    let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
                    let mut state = circuit.new_state();
                    black_box(circuit.run_with(&mut state, stimulus, &config).unwrap())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("classical_per_output", format!("{width_ps}ps")),
            &stimulus,
            |b, stimulus| {
                b.iter(|| {
                    black_box(
                        classical::run(&netlist, &library, stimulus, &SimulationConfig::cdm())
                            .unwrap(),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_inertial_handling);
criterion_main!(benches);
