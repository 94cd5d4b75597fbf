//! Extension experiment: pulse-width sweep through a gate chain.
//!
//! Paper §2 argues that real gates do not filter pulses abruptly: between
//! "propagated normally" and "eliminated" lies a range of input widths where
//! the output pulse is *narrower* than the input pulse (degradation).  This
//! sweep drives a pulse of increasing width into an inverter chain and
//! records the width of the pulse emerging at the far end under the
//! electrical reference, HALOTIS-DDM and HALOTIS-CDM, exposing the
//! continuous transition the DDM models and the abrupt one the CDM shows.

use halotis_analog::{AnalogConfig, AnalogSimulator};
use halotis_core::{LogicLevel, Time, TimeDelta};
use halotis_netlist::generators::inverter_chain;
use halotis_netlist::{technology, Library, Netlist};
use halotis_sim::{
    BatchRunner, CompiledCircuit, ObservedOutcome, Scenario, SimulationConfig, WaveformRecorder,
};
use halotis_waveform::{IdealWaveform, Stimulus};

/// One point of the sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PulseWidthPoint {
    /// Input pulse width.
    pub input_width: TimeDelta,
    /// Output pulse width in the electrical reference (`None` = filtered).
    pub analog_output: Option<TimeDelta>,
    /// Output pulse width under HALOTIS-DDM (`None` = filtered).
    pub ddm_output: Option<TimeDelta>,
    /// Output pulse width under HALOTIS-CDM (`None` = filtered).
    pub cdm_output: Option<TimeDelta>,
}

/// The full sweep result.
#[derive(Clone, Debug, PartialEq)]
pub struct PulseWidthSweep {
    /// Number of chain stages the pulse traverses.
    pub stages: usize,
    /// The sweep points, in increasing input width.
    pub points: Vec<PulseWidthPoint>,
}

fn widest_pulse(waveform: &IdealWaveform) -> Option<TimeDelta> {
    waveform
        .pulses()
        .into_iter()
        .map(|(start, end, _)| end - start)
        .max()
}

fn pulse_stimulus(library: &Library, width: TimeDelta) -> Stimulus {
    let mut stimulus = Stimulus::new(library.default_input_slew());
    stimulus.set_initial("in", LogicLevel::Low);
    stimulus.drive("in", Time::from_ns(2.0), LogicLevel::High);
    stimulus.drive("in", Time::from_ns(2.0) + width, LogicLevel::Low);
    stimulus
}

fn analog_point(
    netlist: &Netlist,
    library: &Library,
    width: TimeDelta,
    analog_step: TimeDelta,
) -> Option<TimeDelta> {
    let stimulus = pulse_stimulus(library, width);
    let analog = AnalogSimulator::new(netlist, library)
        .run(
            &stimulus,
            &AnalogConfig::default()
                .with_time_step(analog_step)
                .with_end_time(Time::from_ns(12.0)),
        )
        .expect("inverter chain simulates under the analog engine");
    analog.ideal_waveform("out").and_then(|w| widest_pulse(&w))
}

/// Runs the sweep over `widths_ps` through an inverter chain of `stages`
/// stages.
///
/// The chain is compiled once; every `(width, model)` combination then runs
/// as one scenario of a parallel [`BatchRunner`] sweep over the shared
/// compiled tables.  Only the (far slower) analog reference points run
/// sequentially.
pub fn pulse_width_sweep(
    stages: usize,
    widths_ps: &[f64],
    analog_step: TimeDelta,
) -> PulseWidthSweep {
    let netlist = inverter_chain(stages);
    let library = technology::cmos06();
    let circuit = CompiledCircuit::compile(&netlist, &library).expect("inverter chain compiles");
    let scenarios: Vec<Scenario> = widths_ps
        .iter()
        .flat_map(|&w| {
            Scenario::both_models(
                format!("width={w}ps"),
                pulse_stimulus(&library, TimeDelta::from_ps(w)),
                SimulationConfig::default(),
            )
        })
        .collect();
    let report =
        BatchRunner::new().run_observed(&circuit, &scenarios, |_, _| WaveformRecorder::new());
    let out = netlist.net_id("out").expect("the chain has an `out` net");
    let output_width = |outcome: &ObservedOutcome<WaveformRecorder>| {
        outcome
            .stats
            .as_ref()
            .expect("inverter chain simulates under both models");
        let waveform = outcome.observer.waveform(out)?;
        widest_pulse(&waveform.ideal_half_swing(library.vdd()))
    };
    let points = widths_ps
        .iter()
        .zip(report.outcomes().chunks(2))
        .map(|(&w, chunk)| {
            let [ddm, cdm] = chunk else {
                unreachable!("two scenarios per width");
            };
            let width = TimeDelta::from_ps(w);
            PulseWidthPoint {
                input_width: width,
                analog_output: analog_point(&netlist, &library, width, analog_step),
                ddm_output: output_width(ddm),
                cdm_output: output_width(cdm),
            }
        })
        .collect();
    PulseWidthSweep { stages, points }
}

/// The default sweep used by the `reproduce` binary: a 6-stage chain, input
/// widths from 100 ps to 2 ns.
pub fn default_sweep() -> PulseWidthSweep {
    let widths: Vec<f64> = (1..=20).map(|i| i as f64 * 100.0).collect();
    pulse_width_sweep(6, &widths, TimeDelta::from_ps(2.0))
}

/// Renders the sweep as a table (widths in picoseconds; `-` = filtered).
pub fn render(sweep: &PulseWidthSweep) -> String {
    let fmt = |value: Option<TimeDelta>| match value {
        Some(width) => format!("{:.0}", width.as_ps()),
        None => "-".to_string(),
    };
    let rows: Vec<Vec<String>> = sweep
        .points
        .iter()
        .map(|point| {
            vec![
                format!("{:.0}", point.input_width.as_ps()),
                fmt(point.analog_output),
                fmt(point.ddm_output),
                fmt(point.cdm_output),
            ]
        })
        .collect();
    format!(
        "pulse propagation through a {}-stage inverter chain (widths in ps)\n{}",
        sweep.stages,
        super::report::format_table(
            &["input width", "analog ref", "HALOTIS-DDM", "HALOTIS-CDM"],
            &rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_sweep() -> PulseWidthSweep {
        pulse_width_sweep(
            4,
            &[100.0, 300.0, 600.0, 1000.0, 1600.0],
            TimeDelta::from_ps(4.0),
        )
    }

    #[test]
    fn wide_pulses_propagate_and_narrow_pulses_do_not() {
        let sweep = quick_sweep();
        let first = sweep.points.first().unwrap();
        let last = sweep.points.last().unwrap();
        // The narrowest pulse dies in the reference and under DDM.
        assert!(first.analog_output.is_none() || first.analog_output.unwrap() < first.input_width);
        // The widest pulse survives everywhere.
        assert!(last.analog_output.is_some());
        assert!(last.ddm_output.is_some());
        assert!(last.cdm_output.is_some());
    }

    #[test]
    fn ddm_output_width_is_monotone_in_input_width() {
        let sweep = quick_sweep();
        let widths: Vec<Option<TimeDelta>> = sweep.points.iter().map(|p| p.ddm_output).collect();
        let mut previous = TimeDelta::ZERO;
        for width in widths.into_iter().flatten() {
            assert!(width >= previous, "output width shrank as input width grew");
            previous = width;
        }
    }

    #[test]
    fn ddm_never_widens_a_pulse_beyond_cdm() {
        // The degradation model can only shrink pulses relative to the
        // conventional model.
        for point in quick_sweep().points {
            if let (Some(ddm), Some(cdm)) = (point.ddm_output, point.cdm_output) {
                assert!(
                    ddm <= cdm + TimeDelta::from_ps(1.0),
                    "DDM pulse {ddm} wider than CDM pulse {cdm}"
                );
            }
        }
    }

    #[test]
    fn render_contains_every_point() {
        let sweep = quick_sweep();
        let text = render(&sweep);
        assert!(text.contains("input width"));
        assert_eq!(text.lines().count(), sweep.points.len() + 3);
    }
}
