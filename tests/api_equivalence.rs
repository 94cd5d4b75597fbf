//! Equivalence suite for the trait-based simulation API.
//!
//! The redesign's contract is *extensibility only, no behaviour change*:
//!
//! 1. running through a trait-object [`DelayModelHandle`] wrapping the
//!    built-in [`Degradation`] / [`Conventional`] structs — or a
//!    [`PerCellOverride`] composite that resolves to a built-in for every
//!    cell — must be **bit-identical** (waveforms and statistics) to the
//!    `DelayModelKind`-constructed configurations the enum-era API produced,
//! 2. the streaming observer path must reproduce what recorded results
//!    derive: [`ActivityCounter`] totals equal to per-net waveform lengths,
//!    [`PowerAccumulator`] equal to the recorded power estimate, and
//!    [`CompiledCircuit::run_stats`] equal to `result.stats()`,
//! 3. a *custom* model must behave identically through every execution path
//!    (single-shot, reused arena, parallel batch).
//!
//! Properties drive random circuits from the repository's generator families
//! (inverter chains, c17, random logic, small multipliers) with randomized
//! stimuli.

use halotis::core::{LogicLevel, Time, TimeDelta};
use halotis::delay::{
    Conventional, Degradation, DelayContext, DelayModel, DelayModelHandle, DelayModelKind,
    DelayOutcome, EdgeTiming, PerCellOverride,
};
use halotis::netlist::{generators, technology, CellKind, Library, Netlist};
use halotis::sim::{
    power, ActivityCounter, BatchRunner, CompiledCircuit, PowerAccumulator, Scenario,
    SimulationConfig, SimulationResult, WaveformRecorder,
};
use halotis::waveform::Stimulus;
use proptest::prelude::*;

/// Asserts bit-identical statistics and raw waveforms on every net.
fn assert_identical(context: &str, reference: &SimulationResult, candidate: &SimulationResult) {
    assert_eq!(
        reference.stats(),
        candidate.stats(),
        "{context}: statistics diverge"
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

/// A toggle stimulus driving every primary input once, with per-input
/// offsets and polarities derived from `polarity`.
fn toggle_stimulus(netlist: &Netlist, library: &Library, polarity: u32) -> Stimulus {
    let mut stimulus = Stimulus::new(library.default_input_slew());
    for (index, &input) in netlist.primary_inputs().iter().enumerate() {
        let name = netlist.net(input).name().to_string();
        let high = polarity & (1 << (index % 32)) != 0;
        let initial = if high {
            LogicLevel::High
        } else {
            LogicLevel::Low
        };
        stimulus.set_initial(&name, initial);
        stimulus.drive(
            &name,
            Time::from_ns(1.0) + TimeDelta::from_ps(53.0 * index as f64),
            if high {
                LogicLevel::Low
            } else {
                LogicLevel::High
            },
        );
    }
    stimulus
}

/// Every way of naming a built-in model must run bit-identically: the kind,
/// the struct behind a handle, and a composite resolving to that kind for
/// every cell class.
fn check_model_spellings(context: &str, netlist: &Netlist, library: &Library, stimulus: &Stimulus) {
    let circuit = CompiledCircuit::compile(netlist, library).expect("circuit compiles");
    let mut state = circuit.new_state();
    for kind in DelayModelKind::both() {
        let reference = circuit
            .run_with(
                &mut state,
                stimulus,
                &SimulationConfig::default().model(kind),
            )
            .expect("kind-configured run succeeds");

        let via_struct = match kind {
            DelayModelKind::Degradation => DelayModelHandle::new(Degradation),
            DelayModelKind::Conventional => DelayModelHandle::new(Conventional),
        };
        // A composite that overrides *every* cell kind with the same model:
        // exercises the PerCellOverride dispatch on each evaluation.
        let mut composite = PerCellOverride::new(via_struct.clone());
        for cell in CellKind::ALL {
            composite = composite.with(cell.class(), via_struct.clone());
        }

        for (spelling, handle) in [
            ("struct handle", via_struct),
            ("composite", DelayModelHandle::new(composite)),
        ] {
            let candidate = circuit
                .run_with(
                    &mut state,
                    stimulus,
                    &SimulationConfig::default().model(handle),
                )
                .expect("trait-object run succeeds");
            assert_identical(
                &format!("{context} [{kind} via {spelling}]"),
                &reference,
                &candidate,
            );
        }
    }
}

/// The observer path must derive exactly what recorded results derive.
fn check_observers(context: &str, netlist: &Netlist, library: &Library, stimulus: &Stimulus) {
    let circuit = CompiledCircuit::compile(netlist, library).expect("circuit compiles");
    let mut state = circuit.new_state();
    for kind in DelayModelKind::both() {
        let config = SimulationConfig::default().model(kind);
        let result = circuit
            .run_with(&mut state, stimulus, &config)
            .expect("recording run succeeds");

        let stats = circuit
            .run_stats(&mut state, stimulus, &config)
            .expect("stats-only run succeeds");
        assert_eq!(&stats, result.stats(), "{context}: run_stats diverges");

        let mut observers = (ActivityCounter::new(), PowerAccumulator::new());
        circuit
            .run_observed(&mut state, stimulus, &config, &mut observers)
            .expect("observed run succeeds");
        let (activity, power_acc) = observers;
        assert_eq!(
            activity.stats(),
            result.stats(),
            "{context}: observer stats diverge"
        );
        assert_eq!(
            activity.total_transitions(),
            result.stats().output_transitions,
            "{context}: total transitions diverge"
        );
        for net in netlist.nets() {
            assert_eq!(
                activity.transitions(net.id()),
                result.waveform(net.name()).map(|w| w.len()).unwrap_or(0),
                "{context}: transition count of net {} diverges",
                net.name()
            );
        }
        assert_eq!(
            power_acc.report(netlist),
            power::estimate_compiled(&circuit, &result),
            "{context}: power report diverges"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chain_pulses_run_identically_under_every_model_spelling(
        stages in 1usize..8,
        width_ps in 40.0f64..2500.0,
    ) {
        let netlist = generators::inverter_chain(stages);
        let library = technology::cmos06();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        stimulus.drive("in", Time::from_ns(1.0) + TimeDelta::from_ps(width_ps), LogicLevel::Low);
        let context = format!("chain({stages}) pulse {width_ps:.0}ps");
        check_model_spellings(&context, &netlist, &library, &stimulus);
        check_observers(&context, &netlist, &library, &stimulus);
    }

    #[test]
    fn random_logic_runs_identically_under_every_model_spelling(
        inputs in 3usize..7,
        gates in 8usize..40,
        seed in 0u64..1000,
        polarity in 0u32..64,
    ) {
        let netlist = generators::random_logic(inputs, gates, seed);
        let library = technology::cmos06();
        let stimulus = toggle_stimulus(&netlist, &library, polarity);
        let context = format!("random({inputs},{gates},{seed})");
        check_model_spellings(&context, &netlist, &library, &stimulus);
        check_observers(&context, &netlist, &library, &stimulus);
    }

    #[test]
    fn multiplier_runs_identically_under_every_model_spelling(
        bits in 2usize..4,
        a in 0u64..16,
        b in 0u64..16,
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
        let context = format!("multiplier({bits}x{bits}) {a:X}x{b:X}");
        check_model_spellings(&context, &netlist, &library, &stimulus);
        check_observers(&context, &netlist, &library, &stimulus);
    }

    #[test]
    fn c17_observers_match_recorded_derivations(polarity in 0u32..32) {
        let netlist = generators::c17();
        let library = technology::cmos06();
        let stimulus = toggle_stimulus(&netlist, &library, polarity);
        check_observers("c17", &netlist, &library, &stimulus);
    }
}

/// A custom model (not a built-in, not a composite of built-ins): inflates
/// the output slew by a fixed factor.  Used to pin that *custom* models run
/// identically through the single-shot, reused-arena and batch paths.
#[derive(Debug)]
struct WideRamps;

impl DelayModel for WideRamps {
    fn label(&self) -> &str {
        "DDM-wide-ramps"
    }

    fn evaluate(&self, arc: &EdgeTiming, ctx: &DelayContext) -> DelayOutcome {
        let mut out = Degradation.evaluate(arc, ctx);
        out.output_slew = out.output_slew.scale(1.25);
        out
    }
}

#[test]
fn custom_model_is_path_independent_and_distinct() {
    let netlist = generators::multiplier(3, 3);
    let ports = generators::MultiplierPorts::new(3, 3);
    let library = technology::cmos06();
    let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
    let mut stimulus = Stimulus::new(library.default_input_slew());
    for bit in ports.a_refs().iter().chain(ports.b_refs().iter()) {
        stimulus.set_initial(*bit, LogicLevel::Low);
    }
    stimulus.drive_bus_value(&ports.a_refs(), 0x5, Time::from_ns(1.0));
    stimulus.drive_bus_value(&ports.b_refs(), 0x7, Time::from_ns(1.0));

    let custom = SimulationConfig::default().model(DelayModelHandle::new(WideRamps));
    let mut state = circuit.new_state();
    let single = circuit.run_with(&mut state, &stimulus, &custom).unwrap();
    assert_eq!(single.model_kind(), None);
    assert_eq!(single.model_label(), "DDM-wide-ramps");

    // Reused (dirtied) arena.
    circuit
        .run_with(&mut state, &stimulus, &SimulationConfig::cdm())
        .unwrap();
    let reused = circuit.run_with(&mut state, &stimulus, &custom).unwrap();
    assert_identical("custom model reused arena", &single, &reused);

    // Parallel batch: the same custom handle shared across workers.
    let scenarios: Vec<Scenario> = (0..6)
        .map(|i| Scenario::new(format!("s{i}"), stimulus.clone(), custom.clone()))
        .collect();
    let report = BatchRunner::with_threads(3)
        .run_observed(&circuit, &scenarios, |_, _| WaveformRecorder::new());
    assert_eq!(report.failed(), 0);
    for outcome in report.into_outcomes() {
        let context = format!("custom model batch {}", outcome.label);
        assert_eq!(Ok(single.stats()), outcome.stats.as_ref(), "{context}");
        assert_eq!(
            single.waveforms(),
            &outcome.observer.into_trace(&netlist),
            "{context}"
        );
    }

    // And it really is a *different* model than plain DDM: the widened
    // ramps must show up in at least one net's waveform.
    let ddm = circuit
        .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
        .unwrap();
    let diverges = ddm
        .waveforms()
        .iter()
        .any(|(name, waveform)| single.waveform(name) != Some(waveform));
    assert!(diverges, "custom model produced DDM-identical waveforms");
}

/// The fixed Table 1 workload (the paper's published numbers) through the
/// observer path: statistics must match the recorded path exactly, with no
/// waveform retention anywhere.
#[test]
fn table1_workload_observer_stats_match_recorded_stats() {
    use halotis::experiments::{multiplier_fixture, multiplier_stimulus, SEQUENCE_FIG6};
    let fixture = multiplier_fixture();
    let stimulus = multiplier_stimulus(&fixture.ports, SEQUENCE_FIG6);
    let circuit = CompiledCircuit::compile(&fixture.netlist, &fixture.library).unwrap();

    let scenarios: Vec<Scenario> =
        Scenario::both_models("table1", stimulus, SimulationConfig::default()).into();
    let recorded =
        BatchRunner::new().run_observed(&circuit, &scenarios, |_, _| WaveformRecorder::new());
    let observed = BatchRunner::new().run_observed(&circuit, &scenarios, |_, _| ());

    assert_eq!(recorded.totals(), observed.totals());
    for (a, b) in recorded.outcomes().iter().zip(observed.outcomes()) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.stats.as_ref().unwrap(), b.stats.as_ref().unwrap());
    }
}
