//! Layer-attribution self-test: a fixed busy-wait injected inside the
//! benchmark's wrapper around one layer must be charged to that layer's self
//! time in the traced run, and not to its parent job or its sibling layers.

use std::collections::HashMap;
use std::process::Command;

use halotis_serve::json;

/// Injected cost, large against the run-to-run noise of the other layers'
/// per-call self times even in an unoptimised build.
const SPIN_US: f64 = 5_000.0;
const SPUN: &str = "sim.compiled.compile";
const OTHERS: [&str; 6] = [
    "bench.job",
    "bench.check",
    "netlist.parser.parse",
    "netlist.verilog.parse",
    "corpus.stimuli.expand",
    "sim.compiled.run",
];

/// Runs a short traced `fresh_netlists` run and returns its metrics.
fn traced_run(extra: &[&str]) -> HashMap<String, f64> {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "fresh_netlists",
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .args(extra)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(output.status.success(), "benchmark failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(|v| v.as_bool()),
        Some(true),
        "{stdout}"
    );
    result
        .get("metrics")
        .and_then(|metrics| metrics.as_object())
        .expect("metrics object")
        .iter()
        .map(|(name, metric)| {
            let value = metric.get("value").and_then(|v| v.as_f64()).unwrap_or(0.0);
            (name.clone(), value)
        })
        .collect()
}

#[test]
fn injected_spin_is_charged_to_the_spun_layer_only() {
    let base = traced_run(&[]);
    let spun = traced_run(&["--spin-layer", SPUN, "--spin-us", "5000"]);
    let growth = |layer: &str| {
        let key = format!("self_us.{layer}");
        spun[&key] - base[&key]
    };

    let charged = growth(SPUN);
    assert!(
        charged > 0.9 * SPIN_US && charged < 1.5 * SPIN_US,
        "{SPUN} self time grew by {charged:.0} us, expected about {SPIN_US} us"
    );
    for layer in OTHERS {
        let grown = growth(layer);
        assert!(
            grown < 0.3 * SPIN_US,
            "{layer} self time grew by {grown:.0} us: the spin in {SPUN} leaked into it"
        );
    }
}
