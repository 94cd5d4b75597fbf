//! End-to-end checks on the paper's evaluation vehicle: the 4×4 array
//! multiplier simulated with every engine in the workspace.

use halotis::analog::{AnalogConfig, AnalogSimulator};
use halotis::core::{LogicLevel, Time, TimeDelta};
use halotis::experiments::{
    multiplier_fixture, multiplier_stimulus, MultiplierFixture, SEQUENCE_FIG6, SEQUENCE_FIG7,
};
use halotis::netlist::eval;
use halotis::sim::{classical, CompiledCircuit, SimulationConfig, SimulationResult};
use halotis::waveform::Stimulus;

fn final_product(fixture: &MultiplierFixture, level_of: impl Fn(&str) -> LogicLevel) -> u64 {
    let mut product = 0u64;
    for (bit, name) in fixture.ports.s.iter().enumerate() {
        if level_of(name) == LogicLevel::High {
            product |= 1 << bit;
        }
    }
    product
}

/// Runs `stimulus` under DDM then CDM on one compiled circuit and arena.
fn both_models(
    fixture: &MultiplierFixture,
    stimulus: &Stimulus,
) -> (SimulationResult, SimulationResult) {
    let circuit = CompiledCircuit::compile(&fixture.netlist, &fixture.library).unwrap();
    let mut state = circuit.new_state();
    let ddm = circuit.run_with(&mut state, stimulus, &SimulationConfig::ddm());
    let cdm = circuit.run_with(&mut state, stimulus, &SimulationConfig::cdm());
    (ddm.unwrap(), cdm.unwrap())
}

#[test]
fn all_engines_settle_to_the_functional_product() {
    let fixture = multiplier_fixture();
    let pairs = [(0x3u64, 0x9u64), (0xC, 0xB), (0x6, 0x7)];
    let stimulus = multiplier_stimulus(&fixture.ports, &pairs);
    let expected = pairs.last().unwrap().0 * pairs.last().unwrap().1;

    let (ddm, cdm) = both_models(&fixture, &stimulus);
    assert_eq!(
        final_product(&fixture, |n| ddm.ideal_waveform(n).unwrap().final_level()),
        expected
    );
    assert_eq!(
        final_product(&fixture, |n| cdm.ideal_waveform(n).unwrap().final_level()),
        expected
    );

    let classical_result = classical::run(
        &fixture.netlist,
        &fixture.library,
        &stimulus,
        &SimulationConfig::cdm(),
    )
    .unwrap();
    assert_eq!(
        final_product(&fixture, |n| classical_result
            .ideal_waveform(n)
            .unwrap()
            .final_level()),
        expected
    );

    let analog = AnalogSimulator::new(&fixture.netlist, &fixture.library)
        .run(
            &stimulus,
            &AnalogConfig::default()
                .with_time_step(TimeDelta::from_ps(4.0))
                .with_end_time(Time::from_ns(20.0)),
        )
        .unwrap();
    assert_eq!(
        final_product(&fixture, |n| analog
            .ideal_waveform(n)
            .unwrap()
            .final_level()),
        expected
    );

    // The timing engines also agree with the zero-delay functional model.
    let mut assignment = Vec::new();
    for (position, name) in fixture.ports.a.iter().enumerate() {
        let net = fixture.netlist.net_id(name).unwrap();
        assignment.push((
            net,
            LogicLevel::from_bool((pairs[2].0 >> position) & 1 == 1),
        ));
    }
    for (position, name) in fixture.ports.b.iter().enumerate() {
        let net = fixture.netlist.net_id(name).unwrap();
        assignment.push((
            net,
            LogicLevel::from_bool((pairs[2].1 >> position) & 1 == 1),
        ));
    }
    let outputs: Vec<_> = fixture
        .ports
        .s
        .iter()
        .map(|n| fixture.netlist.net_id(n).unwrap())
        .collect();
    assert_eq!(
        eval::evaluate_bus(&fixture.netlist, &assignment, &outputs),
        Some(expected)
    );
}

#[test]
fn cdm_overestimates_activity_on_both_paper_sequences() {
    let fixture = multiplier_fixture();
    for pairs in [SEQUENCE_FIG6, SEQUENCE_FIG7] {
        let stimulus = multiplier_stimulus(&fixture.ports, pairs);
        let (ddm, cdm) = both_models(&fixture, &stimulus);
        assert!(ddm.stats().events_scheduled < cdm.stats().events_scheduled);
        assert!(ddm.stats().events_filtered > 0);
        assert!(ddm.output_edge_count() <= cdm.output_edge_count());
        // Final values are identical: the delay model changes timing, not
        // function.
        for name in &fixture.ports.s {
            assert_eq!(
                ddm.ideal_waveform(name).unwrap().final_level(),
                cdm.ideal_waveform(name).unwrap().final_level(),
                "mismatch on {name}"
            );
        }
    }
}

#[test]
fn ddm_tracks_the_analog_reference_better_than_cdm() {
    use halotis::waveform::compare::compare_traces;
    let fixture = multiplier_fixture();
    let stimulus = multiplier_stimulus(&fixture.ports, SEQUENCE_FIG6);
    let (ddm, cdm) = both_models(&fixture, &stimulus);
    let analog = AnalogSimulator::new(&fixture.netlist, &fixture.library)
        .run(
            &stimulus,
            &AnalogConfig::default()
                .with_time_step(TimeDelta::from_ps(4.0))
                .with_end_time(Time::from_ns(25.0)),
        )
        .unwrap();
    let reference = analog.output_trace();
    let ddm_cmp = compare_traces(&reference, &ddm.output_trace(), TimeDelta::from_ns(1.0));
    let cdm_cmp = compare_traces(&reference, &cdm.output_trace(), TimeDelta::from_ns(1.0));
    assert!(ddm_cmp.final_levels_agree);
    // The DDM edge count stays closer to the reference than the CDM one.
    let ddm_excess = (ddm_cmp.test_edges as i64 - ddm_cmp.reference_edges as i64).abs();
    let cdm_excess = (cdm_cmp.test_edges as i64 - cdm_cmp.reference_edges as i64).abs();
    assert!(
        ddm_excess <= cdm_excess,
        "DDM excess {ddm_excess} vs CDM excess {cdm_excess}"
    );
}

#[test]
fn simulation_is_deterministic() {
    let fixture = multiplier_fixture();
    let stimulus = multiplier_stimulus(&fixture.ports, SEQUENCE_FIG7);
    let run = || {
        let circuit = CompiledCircuit::compile(&fixture.netlist, &fixture.library).unwrap();
        circuit
            .run_with(
                &mut circuit.new_state(),
                &stimulus,
                &SimulationConfig::ddm(),
            )
            .unwrap()
    };
    let (first, second) = (run(), run());
    assert_eq!(first.stats(), second.stats());
    for name in first.output_names() {
        assert_eq!(
            first.ideal_waveform(name).unwrap().changes(),
            second.ideal_waveform(name).unwrap().changes()
        );
    }
}
