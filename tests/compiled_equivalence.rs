//! Equivalence suite for the compile-once/run-many core.
//!
//! The refactor's contract is *speed only, no behaviour change*: for any
//! netlist, stimulus and configuration, the three ways of running a
//! simulation must produce bit-identical waveforms and statistics —
//!
//! 1. the single-shot path (a fresh compile and a fresh state arena per
//!    run),
//! 2. the compiled path with a **reused** state arena
//!    (`CompiledCircuit::run_with`, the arena deliberately dirtied by an
//!    unrelated run first, so an incomplete `reset()` would be caught),
//! 3. the parallel batch path (`BatchRunner::run_observed` with a
//!    `WaveformRecorder` per scenario).
//!
//! The properties drive randomized circuits from every generator family the
//! repository uses — inverter chains, the ISCAS c17 benchmark, the Fig. 1
//! threshold circuit with random thresholds, and small array multipliers —
//! under both the degradation and the conventional delay model.

use halotis::core::{LogicLevel, Time, TimeDelta};
use halotis::netlist::{generators, technology, Library, Netlist};
use halotis::sim::{
    BatchRunner, CompiledCircuit, Scenario, SimulationConfig, SimulationResult, WaveformRecorder,
};
use halotis::waveform::Stimulus;
use proptest::prelude::*;

/// Asserts that two results carry identical statistics and identical raw
/// waveforms on every net.
fn assert_identical(context: &str, reference: &SimulationResult, candidate: &SimulationResult) {
    assert_eq!(
        reference.stats(),
        candidate.stats(),
        "{context}: statistics diverge"
    );
    assert_eq!(
        reference.model(),
        candidate.model(),
        "{context}: model labels diverge"
    );
    for (name, waveform) in reference.waveforms().iter() {
        assert_eq!(
            Some(waveform),
            candidate.waveform(name),
            "{context}: waveform of net {name} diverges"
        );
    }
    assert_eq!(
        reference.waveforms().len(),
        candidate.waveforms().len(),
        "{context}: net sets diverge"
    );
}

/// Runs `stimulus` through the single-shot, reused-arena and batch paths
/// under both delay models and cross-checks all of them.
fn check_all_paths(context: &str, netlist: &Netlist, library: &Library, stimulus: &Stimulus) {
    let circuit = CompiledCircuit::compile(netlist, library).expect("circuit compiles");
    let mut state = circuit.new_state();

    let mut scenarios = Vec::new();
    let mut references = Vec::new();
    for config in [SimulationConfig::ddm(), SimulationConfig::cdm()] {
        let single_shot = {
            let fresh = CompiledCircuit::compile(netlist, library).expect("circuit compiles");
            fresh
                .run_with(&mut fresh.new_state(), stimulus, &config)
                .expect("single-shot run succeeds")
        };

        // Dirty the arena with the *other* model first so a stale-state bug
        // cannot hide behind identical consecutive runs.
        let other = config.clone().model(match config.model.kind() {
            Some(halotis::delay::DelayModelKind::Degradation) => {
                halotis::delay::DelayModelKind::Conventional
            }
            _ => halotis::delay::DelayModelKind::Degradation,
        });
        circuit
            .run_with(&mut state, stimulus, &other)
            .expect("arena-dirtying run succeeds");
        let reused = circuit
            .run_with(&mut state, stimulus, &config)
            .expect("reused-arena run succeeds");
        assert_identical(
            &format!("{context} [{} reused arena]", config.model),
            &single_shot,
            &reused,
        );

        scenarios.push(Scenario::new(
            format!("{}", config.model),
            stimulus.clone(),
            config,
        ));
        references.push(single_shot);
    }

    let report = BatchRunner::with_threads(4)
        .run_observed(&circuit, &scenarios, |_, _| WaveformRecorder::new());
    assert_eq!(report.failed(), 0, "{context}: batch scenarios failed");
    for (reference, outcome) in references.iter().zip(report.into_outcomes()) {
        let context = format!("{context} [batch {}]", outcome.label);
        assert_eq!(
            Ok(reference.stats()),
            outcome.stats.as_ref(),
            "{context}: statistics diverge"
        );
        assert_eq!(
            reference.waveforms(),
            &outcome.observer.into_trace(netlist),
            "{context}: waveforms diverge"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn inverter_chain_pulses_are_path_independent(
        stages in 1usize..9,
        edge_ns in 0.5f64..3.0,
        width_ps in 40.0f64..2500.0,
    ) {
        let netlist = generators::inverter_chain(stages);
        let library = technology::cmos06();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(edge_ns), LogicLevel::High);
        stimulus.drive(
            "in",
            Time::from_ns(edge_ns) + TimeDelta::from_ps(width_ps),
            LogicLevel::Low,
        );
        check_all_paths(
            &format!("chain({stages}) pulse {width_ps:.0}ps"),
            &netlist,
            &library,
            &stimulus,
        );
    }

    #[test]
    fn c17_random_toggles_are_path_independent(
        offsets_ps in proptest::collection::vec(0.0f64..4000.0, 5),
        polarity in 0u8..32,
    ) {
        let netlist = generators::c17();
        let library = technology::cmos06();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        for (index, &input) in netlist.primary_inputs().iter().enumerate() {
            let name = netlist.net(input).name().to_string();
            let initial = if polarity & (1 << index) != 0 {
                LogicLevel::High
            } else {
                LogicLevel::Low
            };
            stimulus.set_initial(&name, initial);
            stimulus.drive(
                &name,
                Time::from_ns(1.0) + TimeDelta::from_ps(offsets_ps[index % offsets_ps.len()]),
                if initial == LogicLevel::High {
                    LogicLevel::Low
                } else {
                    LogicLevel::High
                },
            );
        }
        check_all_paths("c17 random toggles", &netlist, &library, &stimulus);
    }

    #[test]
    fn figure1_random_thresholds_are_path_independent(
        low_vt in 0.08f64..0.40,
        high_vt in 0.60f64..0.92,
        width_ps in 100.0f64..1500.0,
    ) {
        let (netlist, _nets) = generators::figure1(low_vt, high_vt);
        let library = technology::cmos06();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        stimulus.drive(
            "in",
            Time::from_ns(1.0) + TimeDelta::from_ps(width_ps),
            LogicLevel::Low,
        );
        check_all_paths(
            &format!("figure1({low_vt:.2},{high_vt:.2}) pulse {width_ps:.0}ps"),
            &netlist,
            &library,
            &stimulus,
        );
    }

    #[test]
    fn multiplier_vectors_are_path_independent(
        bits in 2usize..4,
        a in 0u64..16,
        b in 0u64..16,
        a2 in 0u64..16,
        b2 in 0u64..16,
    ) {
        let netlist = generators::multiplier(bits, bits);
        let ports = generators::MultiplierPorts::new(bits, bits);
        let library = technology::cmos06();
        let mask = (1u64 << bits) - 1;
        let mut stimulus = Stimulus::new(library.default_input_slew());
        for bit in ports.a_refs().iter().chain(ports.b_refs().iter()) {
            stimulus.set_initial(*bit, LogicLevel::Low);
        }
        stimulus.drive_bus_value(&ports.a_refs(), a & mask, Time::from_ns(1.0));
        stimulus.drive_bus_value(&ports.b_refs(), b & mask, Time::from_ns(1.0));
        stimulus.drive_bus_value(&ports.a_refs(), a2 & mask, Time::from_ns(6.0));
        stimulus.drive_bus_value(&ports.b_refs(), b2 & mask, Time::from_ns(6.0));
        check_all_paths(
            &format!("multiplier({bits}x{bits}) {a:X}x{b:X} then {a2:X}x{b2:X}"),
            &netlist,
            &library,
            &stimulus,
        );
    }
}

/// The deterministic fixed-seed cousin of the properties above: the exact
/// Table 1 workload, checked end to end (this is the configuration the
/// paper's numbers come from, so it must never drift).
#[test]
fn table1_workload_is_path_independent() {
    use halotis::experiments::{multiplier_fixture, multiplier_stimulus, SEQUENCE_FIG6};
    let fixture = multiplier_fixture();
    let stimulus = multiplier_stimulus(&fixture.ports, SEQUENCE_FIG6);
    check_all_paths(
        "table1 fig6 sequence",
        &fixture.netlist,
        &fixture.library,
        &stimulus,
    );
}
