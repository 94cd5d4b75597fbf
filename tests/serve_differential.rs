//! Differential acceptance tests for `halotis-serve`: the daemon's numbers
//! ARE the engine's numbers.
//!
//! Two proofs, from opposite directions:
//!
//! 1. **In-process differential** — for representative corpus entries and
//!    all three model columns, every scenario row the daemon returns is
//!    compared field-by-field (energy **bitwise**) against a fresh
//!    in-process [`CompiledCircuit::run_observed`] run with the identical
//!    observer stack.  This crosses the whole wire: framing, JSON float
//!    round-tripping, worker arenas re-shaped by `adapt_state`.
//! 2. **Golden replay** — a 1-worker daemon (one arena hopping across every
//!    circuit) replays a corpus slice against the committed
//!    `CORPUS_stats.json`, via the same [`check_entries_against_golden`]
//!    code path CI's release-mode serve job uses for the full corpus.

use std::time::Duration;

use halotis::corpus::{mixed_model, standard_corpus, GlitchProfile};
use halotis::delay::DelayModelKind;
use halotis::netlist::{technology, writer};
use halotis::serve::client::{load_request, simulate_request, Client};
use halotis::serve::json::Value;
use halotis::serve::loadgen::check_entries_against_golden;
use halotis::serve::{start, ServerConfig, Target};
use halotis::sim::{ActivityCounter, CompiledCircuit, PowerAccumulator, SimulationConfig};

/// Small-but-diverse slice: the paper's benchmark, a carry-save multiplier,
/// a prefix adder, a toggle-probe suite and a random-vector suite.
const SLICE: [&str; 5] = ["c17", "mult4x4", "ks8", "c17_probe", "parity6"];

const MODELS: [&str; 3] = ["ddm", "cdm", "mix"];

fn model_config(model: &str) -> SimulationConfig {
    match model {
        "ddm" => SimulationConfig::default().model(DelayModelKind::Degradation),
        "cdm" => SimulationConfig::default().model(DelayModelKind::Conventional),
        _ => SimulationConfig::default().model(mixed_model()),
    }
}

fn field(row: &Value, name: &str) -> u64 {
    row.get(name)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("scenario row missing {name}"))
}

/// The daemon compiles what it parses off the wire, so the text round trip
/// must be the identity — same net numbering, same event schedule — for
/// every corpus entry, or bit-identity over the wire is unprovable.
#[test]
fn text_round_trip_is_the_identity_for_every_corpus_entry() {
    for entry in standard_corpus() {
        let text = writer::to_text(&entry.netlist);
        let reparsed = halotis::netlist::parser::parse(&text)
            .unwrap_or_else(|err| panic!("{}: reparse failed: {err}", entry.name));
        assert_eq!(
            reparsed, entry.netlist,
            "{}: round trip altered the netlist",
            entry.name
        );
    }
}

#[test]
fn daemon_matches_in_process_run_observed_bit_for_bit() {
    let handle = start(ServerConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.tcp_addr().unwrap().to_string();
    let mut client = Client::connect_tcp(&addr).expect("client connects");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();

    let library = technology::cmos06();
    let mut next_id = 1u64;
    let mut compared = 0usize;
    for entry in standard_corpus()
        .into_iter()
        .filter(|entry| SLICE.contains(&entry.name.as_str()))
    {
        let response = client
            .call(&load_request(next_id, &writer::to_text(&entry.netlist)))
            .unwrap();
        next_id += 1;
        let key = response
            .ok()
            .and_then(|ok| ok.get("key"))
            .and_then(Value::as_str)
            .expect("load succeeded")
            .to_string();

        let circuit = CompiledCircuit::compile(&entry.netlist, &library).unwrap();
        let mut state = circuit.new_state();
        for model in MODELS {
            let response = client
                .call(&simulate_request(next_id, &key, &entry.suite, model))
                .unwrap();
            next_id += 1;
            let rows = response
                .ok()
                .and_then(|ok| ok.get("scenarios"))
                .and_then(Value::as_array)
                .unwrap_or_else(|| {
                    panic!(
                        "simulate {model} failed for {}: {:?}",
                        entry.name,
                        response.error_message()
                    )
                })
                .to_vec();

            let config = model_config(model);
            let stimuli = entry.suite.stimuli(&entry.netlist, &library);
            assert_eq!(rows.len(), stimuli.len(), "{}: scenario count", entry.name);
            for (row, (stimulus_label, stimulus)) in rows.iter().zip(&stimuli) {
                let mut observer = (
                    (ActivityCounter::new(), PowerAccumulator::new()),
                    GlitchProfile::new(),
                );
                let stats = circuit
                    .run_observed(&mut state, stimulus, &config, &mut observer)
                    .unwrap();
                let ((activity, power), glitches) = &observer;

                let label = format!("{}/{stimulus_label}/{model}", entry.name);
                assert_eq!(
                    row.get("stimulus").and_then(Value::as_str),
                    Some(stimulus_label.as_str()),
                    "{label}: stimulus label"
                );
                for (name, want) in [
                    ("events_scheduled", stats.events_scheduled),
                    ("events_filtered", stats.events_filtered),
                    ("events_processed", stats.events_processed),
                    ("output_transitions", stats.output_transitions),
                    ("degraded_transitions", stats.degraded_transitions),
                    ("collapsed_transitions", stats.collapsed_transitions),
                    ("queue_high_water", stats.queue_high_water),
                ] {
                    assert_eq!(field(row, name), want as u64, "{label}: {name}");
                }
                assert_eq!(
                    field(row, "transitions"),
                    activity.total_transitions() as u64,
                    "{label}: transitions"
                );
                assert_eq!(
                    field(row, "glitch_pulses"),
                    glitches.total_glitches() as u64,
                    "{label}: glitch_pulses"
                );
                let energy = row
                    .get("energy_joules")
                    .and_then(Value::as_f64)
                    .expect("energy present");
                assert_eq!(
                    energy.to_bits(),
                    power.total_joules().to_bits(),
                    "{label}: energy_joules not bitwise identical \
                     (daemon {energy:e}, in-process {:e})",
                    power.total_joules()
                );
                compared += 1;
            }
        }
    }
    assert!(compared >= SLICE.len() * MODELS.len());

    drop(client);
    handle.initiate_shutdown();
    handle.wait();
}

#[test]
fn one_worker_daemon_replays_the_committed_golden_stats() {
    let golden = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/CORPUS_stats.json"))
        .expect("committed golden stats exist");

    let handle = start(ServerConfig {
        tcp: Some("127.0.0.1:0".to_string()),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("daemon starts");
    let target = Target::Tcp(handle.tcp_addr().unwrap().to_string());

    let checked = check_entries_against_golden(&target, &golden, Some(&SLICE))
        .expect("daemon replay matches the committed golden stats");
    assert!(
        checked >= SLICE.len() * MODELS.len(),
        "only {checked} scenarios checked"
    );

    // The replay also gates `queue_high_water`: bump it in one SLICE
    // scenario of a copy of the golden and the error names label and field.
    let label = "c17/exh/mix";
    let at = golden
        .find(&format!("\"label\": \"{label}\""))
        .expect("c17 MIX scenario in the golden");
    let field = "\"queue_high_water\": ";
    let start = at + golden[at..].find(field).unwrap() + field.len();
    let end = start + golden[start..].find(',').unwrap();
    let bumped: u64 = golden[start..end].parse::<u64>().unwrap() + 1;
    let tampered = format!("{}{bumped}{}", &golden[..start], &golden[end..]);
    let error = check_entries_against_golden(&target, &tampered, Some(&SLICE))
        .expect_err("a bumped queue_high_water must fail the replay");
    assert!(
        error.contains(&format!("{label}.queue_high_water: golden {bumped}")),
        "error does not name the field: {error}"
    );

    handle.initiate_shutdown();
    handle.wait();
}
