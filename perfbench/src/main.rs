//! HALOTIS benchmark: three seeded workloads against the public API, with
//! output checks, end-to-end metrics (untraced) and per-layer metrics (a
//! separate traced run).  See README.md for the workloads, the metrics and
//! which layer metric should move which end-to-end metric.
//!
//! ```text
//! perfbench --workload soak|fresh_netlists|serve_eco --seed N --seconds S --trace 0|1
//!           [--spin-layer LAYER --spin-us US] [--record-counts]
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`).  `--spin-layer` busy-waits inside the benchmark's wrapper
//! around one layer (the attribution self-test); `--record-counts` rewrites
//! the recorded deterministic counts for the default seed.

mod common;
mod fresh;
mod probe;
mod report;
mod serve_eco;
mod soak;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use common::{cpu_model, median, nproc, peak_rss_mib, percentile};
use report::{Counts, Layers, Metric, Window};

/// Scratch directory (relative to the working directory) for the daemon's
/// socket and the traced run's span dump.
pub const RUN_DIR: &str = ".perfbench_run";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Untimed warm-up before the measured window, seconds.
const WARMUP_S: f64 = 1.0;
/// Slices of the measured window (see [`end_to_end`]).
const SLICES: usize = 10;
/// Untraced/traced slice pairs in a traced run.
const TRACE_SLICES: usize = 4;
/// The seed whose deterministic counts are recorded.
const DEFAULT_SEED: u64 = 1;
const RECORDED_COUNTS: &str = include_str!("../expected_counts.json");
const WORKLOADS: [&str; 3] = ["soak", "fresh_netlists", "serve_eco"];

/// Layers whose spans the traced run records, in report order.
const LAYERS: [&str; 13] = [
    "bench.job",
    "bench.check",
    "netlist.parser.parse",
    "netlist.verilog.parse",
    "sim.compiled.compile",
    "corpus.stimuli.expand",
    "sim.compiled.run",
    "sim.batch.run_observed",
    "sim.compiled.apply_edits",
    "serve.client.simulate",
    "serve.client.edit",
    "serve.client.revert",
    "serve.json.parse",
];

/// Per-layer metrics other than the span self times, with units.
const LAYER_METRICS: [(&str, &str); 19] = [
    ("netlist.parser.parse_us", "us"),
    ("netlist.verilog.parse_us", "us"),
    ("netlist.parse_bytes", "bytes"),
    ("sim.compiled.compile_us", "us"),
    ("corpus.stimuli.expand_us", "us"),
    ("sim.compiled.run_setup_us", "us"),
    ("sim.compiled.run_us", "us"),
    ("sim.ns_per_event", "ns"),
    ("sim.observer.overhead_us", "us"),
    ("sim.batch.parallel_efficiency", "ratio"),
    ("sim.compiled.apply_edits_us", "us"),
    ("serve.client.simulate_us", "us"),
    ("serve.compute_us", "us"),
    ("serve.overhead_us", "us"),
    ("serve.json.parse_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("split.event_loop_pct", "%"),
    ("split.cold_path_pct", "%"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spin: Option<(String, u64)>,
    record_counts: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut spin_layer, mut spin_us, mut record_counts) = (None, None, false);
    while let Some(flag) = args.next() {
        if flag == "--record-counts" {
            record_counts = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |value: &str| {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => traced = Some(number(&value)?),
            "--spin-layer" => spin_layer = Some(value),
            "--spin-us" => spin_us = Some(number(&value)?),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match traced.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let spin = match (spin_layer, spin_us) {
        (Some(layer), Some(us)) => Some((layer, us)),
        (None, None) => None,
        _ => return Err("--spin-layer and --spin-us go together".to_string()),
    };
    let seed = seed.unwrap_or(DEFAULT_SEED);
    if record_counts && seed != DEFAULT_SEED {
        return Err(format!("--record-counts records seed {DEFAULT_SEED} only"));
    }
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        spin,
        record_counts,
    })
}

enum Bench {
    Soak(soak::Soak),
    Fresh(fresh::Fresh),
    Serve(serve_eco::ServeEco),
}

impl Bench {
    fn setup(workload: &str, seed: u64) -> Result<Bench, String> {
        Ok(match workload {
            "soak" => Bench::Soak(soak::setup(seed)?),
            "fresh_netlists" => Bench::Fresh(fresh::setup(seed)?),
            _ => Bench::Serve(serve_eco::setup(seed)?),
        })
    }

    fn run(&mut self, seconds: f64) -> Window {
        match self {
            Bench::Soak(bench) => bench.run(seconds),
            Bench::Fresh(bench) => bench.run(seconds),
            Bench::Serve(bench) => bench.run(seconds),
        }
    }

    fn counts(&mut self, window: &mut Window) -> Counts {
        match self {
            Bench::Soak(bench) => bench.counts(),
            Bench::Fresh(bench) => bench.counts(),
            Bench::Serve(bench) => bench.count_pass(window),
        }
    }

    fn probes(&mut self, layers: &Layers, window: &mut Window) -> Vec<Metric> {
        match self {
            Bench::Soak(bench) => bench.probes(layers, window),
            Bench::Fresh(bench) => bench.probes(layers, window),
            Bench::Serve(bench) => bench.probes(layers, window),
        }
    }
}

/// End-to-end metrics from the window's slices: throughput is the median
/// slice rate, a latency percentile the median of the slices' percentiles
/// when every slice holds ten samples beyond it, else the percentile of all
/// samples.
fn end_to_end(setup_s: f64, slices: &[Window]) -> Vec<Metric> {
    let mut jobs_rates: Vec<f64> = slices.iter().map(Window::jobs_per_s).collect();
    let mut event_rates: Vec<f64> = slices.iter().map(Window::events_per_s).collect();
    let latency = |q: f64, samples: fn(&Window) -> &Vec<f64>| -> f64 {
        let needed = (10.0 / (1.0 - q)).ceil() as usize;
        if slices.iter().all(|slice| samples(slice).len() >= needed) {
            let mut per_slice: Vec<f64> = slices
                .iter()
                .map(|slice| percentile(&mut samples(slice).clone(), q))
                .collect();
            median(&mut per_slice)
        } else {
            let mut pooled: Vec<f64> = slices
                .iter()
                .flat_map(|slice| samples(slice).clone())
                .collect();
            percentile(&mut pooled, q)
        }
    };
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("jobs_per_s", median(&mut jobs_rates), "1/s"),
        Metric::new("events_per_s", median(&mut event_rates), "1/s"),
        Metric::new("latency_p50_us", latency(0.5, |w| &w.latencies_us), "us"),
        Metric::new("latency_p99_us", latency(0.99, |w| &w.latencies_us), "us"),
        Metric::new("edit_latency_p50_us", latency(0.5, |w| &w.edit_us), "us"),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// The traced run's per-layer metrics: span self times, the workload's
/// probes, the split checks, the counts and the tracing overhead.
fn per_layer(
    layers: &Layers,
    probes: Vec<Metric>,
    counts: &Counts,
    untraced: &Window,
    traced: &Window,
) -> Vec<Metric> {
    let mut values: BTreeMap<String, f64> = probes
        .into_iter()
        .map(|metric| (metric.name, metric.value))
        .collect();
    let run = layers.get(common::RUN_LAYER);
    let run_setup_us = values
        .get("sim.compiled.run_setup_us")
        .copied()
        .unwrap_or(0.0);
    if run.calls > 0 {
        values.insert("sim.compiled.run_us".into(), run.mean_us());
        let loop_us = run.total.as_secs_f64() * 1e6 - run.calls as f64 * run_setup_us;
        values.insert(
            "sim.ns_per_event".into(),
            loop_us * 1e3 / traced.events.max(1) as f64,
        );
    }
    let edits = layers.get("sim.compiled.apply_edits");
    if edits.calls > 0 {
        values.insert("sim.compiled.apply_edits_us".into(), edits.mean_us());
    }

    let total_self: f64 = layers
        .0
        .values()
        .map(|layer| layer.self_time.as_secs_f64())
        .sum();
    let share = |seconds: f64| 100.0 * seconds / total_self.max(f64::MIN_POSITIVE);
    let self_s = |name: &str| layers.get(name).self_time.as_secs_f64();
    let run_setup_s = run.calls as f64 * run_setup_us * 1e-6;
    values.insert(
        "split.event_loop_pct".into(),
        share((self_s(common::RUN_LAYER) - run_setup_s).max(0.0)),
    );
    values.insert(
        "split.cold_path_pct".into(),
        share(
            self_s("netlist.parser.parse")
                + self_s("netlist.verilog.parse")
                + self_s("sim.compiled.compile")
                + self_s("corpus.stimuli.expand")
                + run_setup_s.min(self_s(common::RUN_LAYER)),
        ),
    );
    values.insert(
        "trace.overhead_pct".into(),
        100.0 * (1.0 - traced.jobs_per_s() / untraced.jobs_per_s()),
    );

    let mut metrics: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    for (name, value) in counts.entries() {
        metrics.push(Metric::new(
            name,
            value,
            if name.ends_with("ratio") {
                "ratio"
            } else {
                "count"
            },
        ));
    }
    for layer in LAYERS {
        let totals = layers.get(layer);
        metrics.push(Metric::new(
            format!("self_us.{layer}"),
            totals.self_us(),
            "us",
        ));
        metrics.push(Metric::new(
            format!("self_pct.{layer}"),
            share(totals.self_time.as_secs_f64()),
            "%",
        ));
    }
    metrics
}

/// Compares the counts with the recorded ones for the default seed and
/// describes the outcome in one line.
fn drift_line(workload: &str, seed: u64, counts: &Counts) -> String {
    if seed != DEFAULT_SEED {
        return format!(
            "counts: seed {seed} has no recorded counts (recorded: seed {DEFAULT_SEED})"
        );
    }
    let recorded = halotis_serve::json::parse(RECORDED_COUNTS)
        .ok()
        .and_then(|doc| doc.get("workloads")?.get(workload).cloned());
    let Some(recorded) = recorded else {
        return format!("counts: none recorded for {workload}");
    };
    let drifted: Vec<String> = counts
        .entries()
        .into_iter()
        .filter_map(|(name, value)| {
            let was = recorded.get(name).and_then(|value| value.as_f64());
            (was != Some(value)).then(|| format!("{name} {was:?} -> {value}"))
        })
        .collect();
    if drifted.is_empty() {
        format!("counts: identical to the recorded seed-{DEFAULT_SEED} counts")
    } else {
        format!(
            "counts: DRIFT from the recorded seed-{DEFAULT_SEED} counts: {}",
            drifted.join(", ")
        )
    }
}

/// Rewrites the recorded counts with this workload's entry replaced.
fn record_counts(workload: &str, counts: &Counts) -> Result<(), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/expected_counts.json");
    let current = std::fs::read_to_string(path).unwrap_or_default();
    let doc = halotis_serve::json::parse(&current).ok();
    let mut out = format!("{{\n  \"seed\": {DEFAULT_SEED},\n  \"workloads\": {{");
    for (index, name) in WORKLOADS.iter().enumerate() {
        let entries: Vec<String> = if *name == workload {
            counts
                .entries()
                .into_iter()
                .map(|(key, value)| format!("\"{key}\": {}", number(value)))
                .collect()
        } else {
            doc.as_ref()
                .and_then(|doc| doc.get("workloads")?.get(name)?.as_object())
                .map(|fields| {
                    fields
                        .iter()
                        .filter_map(|(key, value)| {
                            Some(format!("\"{key}\": {}", number(value.as_f64()?)))
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        let separator = if index + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = write!(
            out,
            "\n    \"{name}\": {{\n      {}\n    }}{separator}",
            entries.join(",\n      ")
        );
    }
    out.push_str("\n  }\n}\n");
    std::fs::write(path, out).map_err(|err| format!("{path}: {err}"))
}

/// A JSON number with every digit (`{:?}` round-trips `f64`); non-finite
/// values, which JSON cannot carry, become `null`.
fn number(value: f64) -> String {
    if !value.is_finite() {
        "null".to_string()
    } else if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value:?}")
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|metric| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                metric.name,
                number(metric.value),
                metric.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    if let Some((layer, us)) = &args.spin {
        trace::set_spin(layer.clone(), Duration::from_micros(*us));
    }
    println!(
        "env: nproc={} rustc=\"{}\" cpu=\"{}\" profile={}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        cpu_model(),
        env!("PERFBENCH_PROFILE")
    );
    println!(
        "workload: {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    // Set up several times (dropping the previous set-up first) and report
    // the median; the first set-up is timed from process start.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for attempt in 0..SETUPS {
        drop(bench.take());
        let started = if attempt == 0 {
            process_start
        } else {
            Instant::now()
        };
        match Bench::setup(&args.workload, args.seed) {
            Ok(ready) => bench = Some(ready),
            Err(err) => {
                eprintln!("perfbench: set-up failed: {err}");
                return ExitCode::from(1);
            }
        }
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up ran");
    let setup_s = median(&mut setup_times);

    // Warm-up: caches, allocator arenas and the CPU settle before timing.
    // Its jobs are checked like any other; only its timings are dropped.
    let warmup = bench.run(WARMUP_S.min(args.seconds / 4.0));

    let mut lines = Vec::new();
    let (mut window, metrics, counts) = if args.trace {
        // Untraced and traced slices alternate, so drift over the run does
        // not masquerade as tracing overhead.
        let slice = args.seconds / (2 * TRACE_SLICES) as f64;
        let (mut untraced, mut traced) = (Window::default(), Window::default());
        for _ in 0..TRACE_SLICES {
            untraced.append(bench.run(slice));
            trace::set_enabled(true);
            traced.append(bench.run(slice));
            trace::set_enabled(false);
        }
        let spans = trace::take();
        let dump = std::path::Path::new(RUN_DIR).join(format!("trace-{}.jsonl", args.workload));
        let written = std::fs::create_dir_all(RUN_DIR)
            .and_then(|()| trace::write_jsonl(&dump, &spans, process_start));
        match written {
            Ok(()) => lines.push(format!(
                "spans: {} written to {}",
                spans.len(),
                dump.display()
            )),
            Err(err) => lines.push(format!("spans: {} kept, dump failed: {err}", spans.len())),
        }
        let layers = Layers(trace::layers(&spans));
        let counts = bench.counts(&mut traced);
        let probes = bench.probes(&layers, &mut traced);
        let metrics = per_layer(&layers, probes, &counts, &untraced, &traced);
        lines.push(format!(
            "tracing: untraced {:.1} jobs/s, traced {:.1} jobs/s",
            untraced.jobs_per_s(),
            traced.jobs_per_s()
        ));
        let mut window = untraced;
        window.append(traced);
        (window, metrics, counts)
    } else {
        let slices: Vec<Window> = (0..SLICES)
            .map(|_| bench.run(args.seconds / SLICES as f64))
            .collect();
        for slice in &slices {
            let mut latencies = slice.latencies_us.clone();
            lines.push(format!(
                "slice: {:.1} jobs/s, latency p50 {:.1} us, p99 {:.1} us",
                slice.jobs_per_s(),
                percentile(&mut latencies, 0.5),
                percentile(&mut latencies, 0.99)
            ));
        }
        let metrics = end_to_end(setup_s, &slices);
        let mut window = Window::default();
        for slice in slices {
            window.append(slice);
        }
        let counts = bench.counts(&mut window);
        lines.push(format!(
            "samples: {} slices, {} job latencies, {} edit round trips, {} busy retries",
            SLICES,
            window.latencies_us.len(),
            window.edit_us.len(),
            window.busy_retries
        ));
        (window, metrics, counts)
    };
    window.attempted += warmup.attempted;
    window.failed += warmup.failed;
    window.failures.extend(warmup.failures);
    if let Bench::Serve(serve) = &mut bench {
        serve.shutdown();
    }
    drop(bench);

    lines.push(drift_line(&args.workload, args.seed, &counts));
    if args.record_counts {
        match record_counts(&args.workload, &counts) {
            Ok(()) => lines.push("counts: recorded".to_string()),
            Err(err) => {
                window.fail(format!("recording counts: {err}"));
            }
        }
    }
    lines.push(format!(
        "setup: {SETUPS} set-ups, median {setup_s:.4} s; error_rate {:.6} ({} failed / {} attempted)",
        window.failed as f64 / window.attempted.max(1) as f64,
        window.failed,
        window.attempted
    ));
    for failure in &window.failures {
        lines.push(format!("failure: {failure}"));
    }
    for line in lines {
        println!("{line}");
    }
    for metric in &metrics {
        println!(
            "  {:<36} {:>16.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    println!(
        "{}",
        result_json(
            window.failed == 0,
            window.attempted.max(1),
            window.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
