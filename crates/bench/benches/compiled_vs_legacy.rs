//! Compile-once/run-many against recompile-per-run.
//!
//! The recompile-per-run arm compiles the circuit — every static table:
//! pin map, thresholds, timing arcs, loads, fanout adjacency — and runs it
//! in a fresh `SimState` per invocation; the compile-once arm reuses one
//! `CompiledCircuit` and one `SimState` across runs.  This
//! bench measures both on the paper's 4×4 multiplier workload so the
//! compilation overhead the split removes is a single number.  Run with
//! `cargo bench -p halotis_bench compiled_vs_legacy`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use halotis::experiments::multiplier_fixture_sized;
use halotis::sim::{CompiledCircuit, SimulationConfig};
use halotis_bench::random_multiplier_stimulus;
use std::hint::black_box;

fn bench_compiled_vs_legacy(c: &mut Criterion) {
    let mut group = c.benchmark_group("compiled_vs_legacy");
    group.sample_size(20);
    for size in [4usize, 6] {
        let fixture = multiplier_fixture_sized(size, size);
        let stimulus = random_multiplier_stimulus(&fixture, 5, 0xC0DE);
        let config = SimulationConfig::ddm();

        group.bench_with_input(
            BenchmarkId::new("recompile_per_run", format!("{size}x{size}")),
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

        let circuit = CompiledCircuit::compile(&fixture.netlist, &fixture.library).unwrap();
        let mut state = circuit.new_state();
        group.bench_with_input(
            BenchmarkId::new("compile_once_run_many", format!("{size}x{size}")),
            &stimulus,
            |b, stimulus| {
                b.iter(|| black_box(circuit.run_with(&mut state, stimulus, &config).unwrap()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_compiled_vs_legacy);
criterion_main!(benches);
