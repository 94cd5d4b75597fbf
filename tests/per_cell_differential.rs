//! Differential guard on the composite delay-model dispatch.
//!
//! A [`PerCellOverride`] that maps **every** cell class of a circuit to the
//! *same* underlying model must be bit-identical — waveforms, statistics,
//! batch outcomes — to running that model directly.  If the composite path
//! ever consulted the wrong class, fell back where it should override, or
//! perturbed numerics, this suite fails on the first diverging bit.
//!
//! Circuits: ISCAS-85 c17 (the corpus's NAND-only classic) and the new
//! Kogge-Stone adder (XOR/AND/OR mix with reconvergent prefix fanout).

use halotis::core::{LogicLevel, Time};
use halotis::delay::{
    Conventional, Degradation, DelayModelHandle, DelayModelKind, PerCellOverride,
};
use halotis::netlist::{generators, technology, CellKind, Library, Netlist};
use halotis::sim::{BatchRunner, CompiledCircuit, Scenario, SimulationConfig};
use halotis::waveform::Stimulus;

/// Wraps `kind` in a `PerCellOverride` that pins every cell class used by
/// `netlist` (plus the default) to the same built-in model.
fn uniform_override(netlist: &Netlist, kind: DelayModelKind) -> DelayModelHandle {
    let mut composite = match kind {
        DelayModelKind::Degradation => PerCellOverride::new(Degradation),
        DelayModelKind::Conventional => PerCellOverride::new(Conventional),
    };
    let mut classes: Vec<CellKind> = netlist.gates().iter().map(|gate| gate.kind()).collect();
    classes.sort();
    classes.dedup();
    for cell in classes {
        composite = match kind {
            DelayModelKind::Degradation => composite.with(cell.class(), Degradation),
            DelayModelKind::Conventional => composite.with(cell.class(), Conventional),
        };
    }
    DelayModelHandle::new(composite)
}

/// A stimulus toggling every primary input at staggered times, then a
/// simultaneous-edge step — enough activity to exercise degradation state.
fn stimulus_for(netlist: &Netlist, library: &Library) -> Stimulus {
    let mut stimulus = Stimulus::new(library.default_input_slew());
    let inputs: Vec<String> = netlist
        .primary_inputs()
        .iter()
        .map(|&net| netlist.net(net).name().to_string())
        .collect();
    for (index, name) in inputs.iter().enumerate() {
        let start = LogicLevel::from_bool(index % 2 == 0);
        stimulus.set_initial(name, start);
        stimulus.drive(name, Time::from_ps(1000.0 + 180.0 * index as f64), !start);
        stimulus.drive(name, Time::from_ps(2600.0 + 90.0 * index as f64), start);
    }
    for name in &inputs {
        stimulus.drive(name, Time::from_ns(6.0), LogicLevel::High);
    }
    stimulus
}

fn check_circuit(context: &str, netlist: &Netlist) {
    let library = technology::cmos06();
    let stimulus = stimulus_for(netlist, &library);
    let circuit = CompiledCircuit::compile(netlist, &library).expect("circuit compiles");
    let mut state = circuit.new_state();

    for kind in DelayModelKind::both() {
        let plain_config = SimulationConfig::default().model(kind);
        let composite_config = SimulationConfig::default().model(uniform_override(netlist, kind));

        let plain = circuit
            .run_with(&mut state, &stimulus, &plain_config)
            .expect("plain run succeeds");
        let composite = circuit
            .run_with(&mut state, &stimulus, &composite_config)
            .expect("composite run succeeds");

        assert_eq!(
            plain.stats(),
            composite.stats(),
            "{context}/{kind:?}: statistics diverge"
        );
        for (name, waveform) in plain.waveforms().iter() {
            assert_eq!(
                Some(waveform),
                composite.waveform(name),
                "{context}/{kind:?}: waveform of {name} diverges"
            );
        }
        assert_eq!(plain.waveforms().len(), composite.waveforms().len());

        // The same equivalence must hold through the parallel batch path
        // (arbitrary worker threads, reused arenas).
        let scenarios = [
            Scenario::new("plain", stimulus.clone(), plain_config),
            Scenario::new("composite", stimulus.clone(), composite_config),
        ];
        let report = BatchRunner::with_threads(2).run_observed(&circuit, &scenarios, |_, _| ());
        let outcomes = report.outcomes();
        let batch_plain = outcomes[0].stats.as_ref().expect("batch plain succeeds");
        let batch_composite = outcomes[1]
            .stats
            .as_ref()
            .expect("batch composite succeeds");
        assert_eq!(
            batch_plain, batch_composite,
            "{context}/{kind:?}: batch statistics diverge"
        );
        assert_eq!(
            batch_plain,
            plain.stats(),
            "{context}/{kind:?}: batch diverges from single-shot"
        );
    }
}

#[test]
fn uniform_override_is_bit_identical_on_c17() {
    check_circuit("c17", &generators::c17());
}

#[test]
fn uniform_override_is_bit_identical_on_the_kogge_stone_adder() {
    check_circuit("ks8", &generators::kogge_stone_adder(8));
}

/// The negative control: an override that actually *mixes* models must
/// diverge from both pure models on an XOR-bearing circuit — otherwise the
/// suite above could pass vacuously with a dispatch that ignores classes.
#[test]
fn mixing_models_is_observable_on_the_kogge_stone_adder() {
    let netlist = generators::kogge_stone_adder(8);
    let library = technology::cmos06();
    let stimulus = stimulus_for(&netlist, &library);
    let circuit = CompiledCircuit::compile(&netlist, &library).expect("circuit compiles");
    let mut state = circuit.new_state();

    let mixed = DelayModelHandle::new(
        PerCellOverride::new(Degradation).with(CellKind::Xor2.class(), Conventional),
    );
    let mixed_stats = circuit
        .run_stats(
            &mut state,
            &stimulus,
            &SimulationConfig::default().model(mixed),
        )
        .expect("mixed run succeeds");
    let ddm_stats = circuit
        .run_stats(
            &mut state,
            &stimulus,
            &SimulationConfig::default().model(DelayModelKind::Degradation),
        )
        .expect("ddm run succeeds");
    let cdm_stats = circuit
        .run_stats(
            &mut state,
            &stimulus,
            &SimulationConfig::default().model(DelayModelKind::Conventional),
        )
        .expect("cdm run succeeds");
    assert_ne!(mixed_stats, ddm_stats, "override must be observable");
    assert_ne!(mixed_stats, cdm_stats, "fallback must be observable");
}
