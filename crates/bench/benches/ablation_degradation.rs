//! Ablation: degradation on versus off (paper §2 / extension E8).
//!
//! A pulse of varying width travels through a 6-stage inverter chain under
//! the degradation model and under the conventional model.  The interesting
//! accuracy quantity (output pulse width) is reported by
//! `reproduce -- pulsewidth`; this bench measures the *cost* side: the DDM
//! run never processes more events than the CDM run, so enabling degradation
//! does not slow the simulator down — the paper's observation that
//! HALOTIS-DDM is the faster configuration.  Run with
//! `cargo bench -p halotis-bench ablation_degradation`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use halotis::core::TimeDelta;
use halotis::netlist::{generators, technology};
use halotis::sim::{CompiledCircuit, SimulationConfig};
use halotis_bench::pulse_stimulus;
use std::hint::black_box;

fn bench_pulse_widths(c: &mut Criterion) {
    let netlist = generators::inverter_chain(6);
    let library = technology::cmos06();
    let mut group = c.benchmark_group("ablation_degradation");
    for width_ps in [150.0f64, 400.0, 800.0, 1600.0] {
        let stimulus = pulse_stimulus(&library, TimeDelta::from_ps(width_ps));
        for (label, config) in [
            ("ddm", SimulationConfig::ddm()),
            ("cdm", SimulationConfig::cdm()),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, format!("{width_ps}ps")),
                &stimulus,
                |b, stimulus| {
                    b.iter(|| {
                        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
                        let mut state = circuit.new_state();
                        black_box(circuit.run_with(&mut state, stimulus, &config).unwrap())
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_pulse_widths);
criterion_main!(benches);
