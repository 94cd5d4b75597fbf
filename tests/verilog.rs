//! Golden and property tests for the structural-Verilog interchange layer.
//!
//! Three committed `.v` files pin the writer's output byte-for-byte, the
//! way `circuits/*.net` pins the native writer: any formatting change —
//! identifier chunking, attribute spelling, port ordering — shows up as a
//! diff against `tests/golden/` instead of silently rewording every export.
//! On top of the byte pins, the whole 24-entry corpus and a proptest sweep
//! of `random_logic` circuits prove the round trip
//! `parse_verilog(to_verilog(n)) == n` is the identity, and a cross-format
//! fingerprint test shows a netlist that travelled `.net` → Verilog → parse
//! simulates bit-identically to one that never left the native format.

use halotis::core::TimeDelta;
use halotis::corpus::{mixed_model, standard_corpus, StimulusSuite};
use halotis::delay::DelayModelKind;
use halotis::netlist::{generators, iscas, parser, technology, verilog, Netlist};
use halotis::sim::{CompiledCircuit, SimulationConfig, SimulationStats};
use proptest::prelude::*;

const C17_GOLDEN: &str = include_str!("golden/c17.v");
const C432_GOLDEN: &str = include_str!("golden/c432.v");
const KS8_GOLDEN: &str = include_str!("golden/ks8.v");

fn golden_sources() -> [(&'static str, Netlist, &'static str); 3] {
    [
        ("c17", generators::c17(), C17_GOLDEN),
        ("c432", iscas::c432(), C432_GOLDEN),
        ("ks8", generators::kogge_stone_adder(8), KS8_GOLDEN),
    ]
}

#[test]
fn committed_verilog_goldens_are_current() {
    for (name, netlist, golden) in golden_sources() {
        assert_eq!(
            verilog::to_verilog(&netlist),
            golden,
            "tests/golden/{name}.v is stale; regenerate with \
             `cargo test --test verilog -- --ignored regenerate`"
        );
    }
}

#[test]
fn committed_verilog_goldens_parse_back_to_their_source() {
    for (name, netlist, golden) in golden_sources() {
        let parsed = verilog::parse_verilog(golden)
            .unwrap_or_else(|err| panic!("{name}: golden fails to parse: {err}"));
        assert_eq!(parsed, netlist, "{name}: golden text reconstructs source");
    }
}

/// `cargo test --test verilog -- --ignored regenerate`
#[test]
#[ignore = "writes tests/golden/*.v; run explicitly to regenerate"]
fn regenerate_committed_verilog() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
    for (name, netlist, _) in golden_sources() {
        std::fs::write(format!("{dir}/{name}.v"), verilog::to_verilog(&netlist))
            .unwrap_or_else(|err| panic!("cannot write {name}.v: {err}"));
    }
}

#[test]
fn verilog_round_trip_is_the_identity_on_every_corpus_entry() {
    let corpus = standard_corpus();
    assert!(corpus.len() >= 22, "corpus shrank to {}", corpus.len());
    for entry in &corpus {
        let emitted = verilog::to_verilog(&entry.netlist);
        let parsed = verilog::parse_verilog(&emitted)
            .unwrap_or_else(|err| panic!("{}: emitted Verilog fails to parse: {err}", entry.name));
        assert_eq!(parsed, entry.netlist, "{}: round trip identity", entry.name);
        assert_eq!(
            verilog::to_verilog(&parsed),
            emitted,
            "{}: emission is stable across the trip",
            entry.name
        );
    }
}

/// The same fingerprint recipe `tests/iscas_parser.rs` pins for netlists
/// that never leave the native format — identical constants, so the two
/// suites must stay in lockstep.
fn fingerprint_stats(netlist: &Netlist) -> [SimulationStats; 3] {
    let library = technology::cmos06();
    let suite = StimulusSuite::RandomVectors {
        vectors: 4,
        period: TimeDelta::from_ns(6.0),
        seed: 0xF1,
    };
    let stimuli = suite.stimuli(netlist, &library);
    let (_, stimulus) = &stimuli[0];
    let circuit = CompiledCircuit::compile(netlist, &library).expect("benchmark compiles");
    let mut state = circuit.new_state();
    [
        SimulationConfig::default().model(DelayModelKind::Degradation),
        SimulationConfig::default().model(DelayModelKind::Conventional),
        SimulationConfig::default().model(mixed_model()),
    ]
    .map(|config| {
        circuit
            .run_stats(&mut state, stimulus, &config)
            .expect("fingerprint run succeeds")
    })
}

fn stats(
    scheduled: usize,
    filtered: usize,
    processed: usize,
    transitions: usize,
    degraded: usize,
    collapsed: usize,
    peak: usize,
) -> SimulationStats {
    SimulationStats {
        events_scheduled: scheduled,
        events_filtered: filtered,
        events_processed: processed,
        output_transitions: transitions,
        degraded_transitions: degraded,
        collapsed_transitions: collapsed,
        queue_high_water: peak,
    }
}

/// A netlist that crossed formats (`.net` text → parse → Verilog → parse)
/// must be structure-identical to the directly parsed one and simulate to
/// the exact fingerprints `tests/iscas_parser.rs` pins — Verilog transit
/// cannot perturb net numbering, and therefore cannot perturb the engine.
#[test]
fn cross_format_transit_preserves_simulation_fingerprints() {
    for (name, net_text, ddm, cdm, mix) in [
        (
            "c432",
            iscas::C432_TEXT,
            stats(436, 12, 424, 345, 107, 9, 88),
            stats(634, 12, 622, 445, 0, 0, 88),
            None,
        ),
        (
            "c880",
            iscas::C880_TEXT,
            stats(1918, 157, 1761, 1248, 781, 74, 333),
            stats(2631, 74, 2557, 1728, 0, 0, 333),
            Some(stats(2185, 110, 2075, 1408, 464, 41, 333)),
        ),
    ] {
        let native = parser::parse(net_text).expect("committed netlist parses");
        let transited = verilog::parse_verilog(&verilog::to_verilog(&native))
            .unwrap_or_else(|err| panic!("{name}: Verilog transit fails: {err}"));
        assert_eq!(transited, native, "{name}: cross-format structure");

        let [got_ddm, got_cdm, got_mix] = fingerprint_stats(&transited);
        assert_eq!(got_ddm, ddm, "{name}/ddm after Verilog transit");
        assert_eq!(got_cdm, cdm, "{name}/cdm after Verilog transit");
        // c432's MIX column collapses onto DDM (no overridden cell class
        // present); c880 keeps all three columns distinct.
        assert_eq!(
            got_mix,
            mix.unwrap_or(ddm),
            "{name}/mix after Verilog transit"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Seeded random circuits — the generator family with the least
    /// structure and the widest name/arity variety — survive the Verilog
    /// round trip bit-identically.
    #[test]
    fn random_logic_survives_the_verilog_round_trip(
        inputs in 2usize..=12,
        gates in 1usize..=150,
        seed in any::<u64>(),
    ) {
        let netlist = generators::random_logic(inputs, gates, seed);
        let emitted = verilog::to_verilog(&netlist);
        let parsed = verilog::parse_verilog(&emitted).expect("emitted Verilog parses");
        prop_assert_eq!(&parsed, &netlist);
        prop_assert_eq!(verilog::to_verilog(&parsed), emitted);
    }
}
