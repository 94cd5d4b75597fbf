//! Cross-engine property tests on randomly generated circuits and stimuli.

use halotis::core::{LogicLevel, Time, TimeDelta};
use halotis::netlist::{eval, generators, technology};
use halotis::sim::{classical, CompiledCircuit, SimulationConfig};
use halotis::waveform::Stimulus;
use proptest::prelude::*;

/// Builds a stimulus toggling every primary input of `netlist` at the given
/// times (same pattern on all inputs, offset by the input index so the
/// circuit sees staggered edges).
fn staggered_stimulus(
    netlist: &halotis::netlist::Netlist,
    edges_ns: &[f64],
    stagger_ps: f64,
) -> Stimulus {
    let library = technology::cmos06();
    let mut stimulus = Stimulus::new(library.default_input_slew());
    for (index, &input) in netlist.primary_inputs().iter().enumerate() {
        let name = netlist.net(input).name();
        stimulus.set_initial(name, LogicLevel::from_bool(index % 2 == 0));
        let mut level = index % 2 == 0;
        for &edge in edges_ns {
            level = !level;
            stimulus.drive(
                name,
                Time::from_ns(edge) + TimeDelta::from_ps(stagger_ps * index as f64),
                LogicLevel::from_bool(level),
            );
        }
    }
    stimulus
}

/// The level every primary input ends at, for the zero-delay reference.
fn final_assignment(
    netlist: &halotis::netlist::Netlist,
    stimulus: &Stimulus,
) -> Vec<(halotis::core::NetId, LogicLevel)> {
    netlist
        .primary_inputs()
        .iter()
        .map(|&net| {
            let waveform = stimulus.waveform(netlist.net(net).name()).unwrap();
            (net, waveform.final_target())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn timing_simulation_settles_to_the_zero_delay_solution(
        seed in 0u64..500,
        gates in 30usize..120,
    ) {
        let netlist = generators::random_logic(6, gates, seed);
        let library = technology::cmos06();
        let stimulus = staggered_stimulus(&netlist, &[2.0, 9.0], 40.0);
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let result = circuit
            .run_with(&mut circuit.new_state(), &stimulus, &SimulationConfig::ddm())
            .unwrap();
        let expected = eval::evaluate(&netlist, &final_assignment(&netlist, &stimulus));
        for &output in netlist.primary_outputs() {
            let name = netlist.net(output).name();
            let settled = result.ideal_waveform(name).unwrap().final_level();
            prop_assert_eq!(
                settled,
                expected[output.index()],
                "net {} settled wrong (seed {}, gates {})", name, seed, gates
            );
        }
    }

    #[test]
    fn ddm_never_schedules_more_events_than_cdm(
        seed in 0u64..500,
        gates in 30usize..100,
        pulse_ns in 0.15f64..1.2,
    ) {
        let netlist = generators::random_logic(5, gates, seed);
        let library = technology::cmos06();
        let stimulus = staggered_stimulus(&netlist, &[2.0, 2.0 + pulse_ns], 30.0);
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut state = circuit.new_state();
        let ddm = circuit.run_stats(&mut state, &stimulus, &SimulationConfig::ddm()).unwrap();
        let cdm = circuit.run_stats(&mut state, &stimulus, &SimulationConfig::cdm()).unwrap();
        prop_assert!(ddm.events_scheduled <= cdm.events_scheduled);
        prop_assert!(ddm.events_processed <= cdm.events_processed);
    }

    #[test]
    fn classical_and_halotis_agree_functionally(
        seed in 0u64..200,
        gates in 20usize..80,
    ) {
        let netlist = generators::random_logic(4, gates, seed);
        let library = technology::cmos06();
        let stimulus = staggered_stimulus(&netlist, &[3.0], 60.0);
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let halotis = circuit
            .run_with(&mut circuit.new_state(), &stimulus, &SimulationConfig::cdm())
            .unwrap();
        let baseline = classical::run(&netlist, &library, &stimulus, &SimulationConfig::cdm())
            .unwrap();
        for &output in netlist.primary_outputs() {
            let name = netlist.net(output).name();
            prop_assert_eq!(
                halotis.ideal_waveform(name).unwrap().final_level(),
                baseline.ideal_waveform(name).unwrap().final_level(),
                "net {} differs (seed {})", name, seed
            );
        }
    }
}

#[test]
fn event_counts_scale_with_circuit_depth_not_explode() {
    // Regression guard against event storms: a long inverter chain driven by
    // one edge should process exactly one event per stage input.
    let library = technology::cmos06();
    for stages in [10usize, 50, 200] {
        let netlist = generators::inverter_chain(stages);
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut state = circuit.new_state();
        let result = circuit
            .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
            .unwrap();
        assert_eq!(result.stats().events_processed, stages);
        assert_eq!(result.stats().events_filtered, 0);
    }
}
