//! Thread scaling of the `BatchRunner` on a ≥64-scenario sweep.
//!
//! One compiled 4×4 multiplier, 64 random-operand scenarios, worker counts
//! from 1 (sequential baseline) up to 8.  On multi-core hardware the
//! wall-clock should drop roughly with the worker count until the core
//! count is reached; on a single-core container the curve is flat, which is
//! itself the interesting datum (the runner adds no measurable overhead).
//! Run with `cargo bench -p halotis_bench batch_scaling`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use halotis::experiments::multiplier_fixture_sized;
use halotis::sim::{BatchRunner, CompiledCircuit, WaveformRecorder};
use halotis_bench::multiplier_batch_scenarios;
use std::hint::black_box;

fn bench_batch_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_scaling");
    group.sample_size(10);
    let fixture = multiplier_fixture_sized(4, 4);
    let circuit = CompiledCircuit::compile(&fixture.netlist, &fixture.library).unwrap();
    let scenarios = multiplier_batch_scenarios(&fixture, 64, 5, 0xBA7C);
    group.throughput(Throughput::Elements(scenarios.len() as u64));
    for threads in [1usize, 2, 4, 8] {
        let runner = BatchRunner::with_threads(threads);
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &scenarios,
            |b, scenarios| {
                b.iter(|| {
                    let report =
                        runner.run_observed(&circuit, scenarios, |_, _| WaveformRecorder::new());
                    assert_eq!(report.failed(), 0);
                    black_box(report)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batch_scaling);
criterion_main!(benches);
