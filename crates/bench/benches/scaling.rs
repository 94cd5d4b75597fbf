//! Extension study E7: how HALOTIS scales beyond the paper's 4×4
//! multiplier.
//!
//! The paper only evaluates one circuit size; this bench sweeps square array
//! multipliers from 2×2 to 8×8 (tens to ~1200 gates) under both delay
//! models, and additionally a large random-logic block, to show that the
//! per-input event handling keeps the cost proportional to the (smaller)
//! DDM event count.  Run with `cargo bench -p halotis-bench scaling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use halotis::experiments::multiplier_fixture_sized;
use halotis::netlist::{generators, technology};
use halotis::sim::{CompiledCircuit, SimulationConfig};
use halotis_bench::{random_multiplier_stimulus, toggle_all_inputs};
use std::hint::black_box;

fn bench_multiplier_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_multiplier");
    group.sample_size(10);
    for size in [2usize, 4, 6, 8] {
        let fixture = multiplier_fixture_sized(size, size);
        let stimulus = random_multiplier_stimulus(&fixture, 5, 0xDA7E);
        group.throughput(Throughput::Elements(fixture.netlist.gate_count() as u64));
        for (label, config) in [
            ("ddm", SimulationConfig::ddm()),
            ("cdm", SimulationConfig::cdm()),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, format!("{size}x{size}")),
                &stimulus,
                |b, stimulus| {
                    b.iter(|| {
                        let circuit =
                            CompiledCircuit::compile(&fixture.netlist, &fixture.library).unwrap();
                        let mut state = circuit.new_state();
                        black_box(circuit.run_with(&mut state, stimulus, &config).unwrap())
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_random_logic(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_random_logic");
    group.sample_size(10);
    let library = technology::cmos06();
    for gates in [500usize, 2000, 8000] {
        let netlist = generators::random_logic(32, gates, 99);
        let stimulus = toggle_all_inputs(&netlist, halotis::core::Time::from_ns(1.0));
        let config = SimulationConfig::ddm();
        group.throughput(Throughput::Elements(gates as u64));
        group.bench_with_input(BenchmarkId::new("ddm", gates), &stimulus, |b, stimulus| {
            b.iter(|| {
                let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
                let mut state = circuit.new_state();
                black_box(circuit.run_with(&mut state, stimulus, &config).unwrap())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_multiplier_scaling, bench_random_logic);
criterion_main!(benches);
