//! Reproductions of the paper's Figs. 6 and 7: the multiplier output
//! waveforms `s7..s0` over a 25 ns window under (a) the electrical
//! reference, (b) HALOTIS-DDM and (c) HALOTIS-CDM.

use std::time::Duration;

use halotis_analog::{AnalogConfig, AnalogSimulator};
use halotis_core::{Time, TimeDelta};
use halotis_sim::{CompiledCircuit, SimulationConfig};
use halotis_waveform::ascii::{render_axis, render_trace, AsciiOptions};
use halotis_waveform::compare::{compare_traces, WaveformComparison};
use halotis_waveform::{IdealWaveform, Trace};

use super::{
    multiplier_fixture, multiplier_stimulus, sequence_label, MultiplierFixture, FIGURE_WINDOW_NS,
};

/// One reproduced waveform figure (Fig. 6 or Fig. 7).
#[derive(Clone, Debug)]
pub struct WaveformFigure {
    /// The figure label (`"Figure 6"` / `"Figure 7"`).
    pub label: String,
    /// The multiplication sequence, in paper notation.
    pub sequence: String,
    /// Primary outputs digitised from the electrical reference.
    pub analog: Trace<IdealWaveform>,
    /// Primary outputs of HALOTIS-DDM.
    pub ddm: Trace<IdealWaveform>,
    /// Primary outputs of HALOTIS-CDM.
    pub cdm: Trace<IdealWaveform>,
    /// Wall-clock time of the three runs (analog, DDM, CDM).
    pub wall_times: (Duration, Duration, Duration),
}

/// Orders a trace as the paper plots it: `s7` at the top, `s0` at the bottom.
fn paper_order(trace: &Trace<IdealWaveform>) -> Trace<IdealWaveform> {
    let mut names: Vec<&str> = trace.names().collect();
    names.sort_by_key(|name| {
        std::cmp::Reverse(
            name.trim_start_matches('s')
                .parse::<usize>()
                .unwrap_or(usize::MAX),
        )
    });
    names
        .into_iter()
        .filter_map(|name| trace.get(name).cloned().map(|w| (name.to_string(), w)))
        .collect()
}

impl WaveformFigure {
    /// Edge-level comparison of HALOTIS-DDM against the electrical
    /// reference.
    pub fn ddm_vs_analog(&self) -> WaveformComparison {
        compare_traces(&self.analog, &self.ddm, TimeDelta::from_ns(1.0))
    }

    /// Edge-level comparison of HALOTIS-CDM against the electrical
    /// reference.
    pub fn cdm_vs_analog(&self) -> WaveformComparison {
        compare_traces(&self.analog, &self.cdm, TimeDelta::from_ns(1.0))
    }

    /// Renders the three stacked waveform plots plus a comparison summary.
    pub fn render(&self) -> String {
        let options = AsciiOptions::new(Time::ZERO, Time::from_ns(FIGURE_WINDOW_NS), 100);
        let axis = render_axis(&options, TimeDelta::from_ns(5.0), 2);
        let mut out = String::new();
        out.push_str(&format!(
            "{} — AxB sequence: {}\n\n",
            self.label, self.sequence
        ));
        for (title, trace) in [
            ("(a) electrical reference", &self.analog),
            ("(b) HALOTIS-DDM", &self.ddm),
            ("(c) HALOTIS-CDM", &self.cdm),
        ] {
            out.push_str(title);
            out.push('\n');
            out.push_str(&render_trace(&paper_order(trace), &options));
            out.push_str(&axis);
            out.push_str("  t (ns)\n\n");
        }
        let ddm = self.ddm_vs_analog();
        let cdm = self.cdm_vs_analog();
        out.push_str(&format!(
            "output edges: reference {}, DDM {}, CDM {}\n",
            ddm.reference_edges, ddm.test_edges, cdm.test_edges
        ));
        out.push_str(&format!(
            "CDM edge overestimation vs reference: {:.0} %  (DDM: {:.0} %)\n",
            cdm.overestimation_percent(),
            ddm.overestimation_percent()
        ));
        out.push_str(&format!(
            "final values agree with reference: DDM {}, CDM {}\n",
            ddm.final_levels_agree, cdm.final_levels_agree
        ));
        out
    }
}

/// Runs one waveform figure for the given multiplication sequence.
///
/// `analog_step` controls the reference integrator resolution (the
/// `reproduce` binary uses 1 ps; benches may coarsen it).
pub fn waveform_figure(
    label: &str,
    pairs: &[(u64, u64)],
    analog_step: TimeDelta,
) -> WaveformFigure {
    let fixture = multiplier_fixture();
    waveform_figure_on(&fixture, label, pairs, analog_step)
}

/// As [`waveform_figure`] but reusing a caller-provided fixture.
pub fn waveform_figure_on(
    fixture: &MultiplierFixture,
    label: &str,
    pairs: &[(u64, u64)],
    analog_step: TimeDelta,
) -> WaveformFigure {
    let stimulus = multiplier_stimulus(&fixture.ports, pairs);
    let circuit = CompiledCircuit::compile(&fixture.netlist, &fixture.library)
        .expect("multiplier fixture compiles");
    let mut state = circuit.new_state();
    let ddm = circuit
        .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
        .expect("multiplier fixture simulates under DDM");
    let cdm = circuit
        .run_with(&mut state, &stimulus, &SimulationConfig::cdm())
        .expect("multiplier fixture simulates under CDM");
    let analog = AnalogSimulator::new(&fixture.netlist, &fixture.library)
        .run(
            &stimulus,
            &AnalogConfig::default()
                .with_time_step(analog_step)
                .with_end_time(Time::from_ns(FIGURE_WINDOW_NS)),
        )
        .expect("multiplier fixture simulates under the analog engine");
    WaveformFigure {
        label: label.to_string(),
        sequence: sequence_label(pairs),
        analog: analog.output_trace(),
        ddm: ddm.output_trace(),
        cdm: cdm.output_trace(),
        wall_times: (analog.wall_time(), ddm.wall_time(), cdm.wall_time()),
    }
}

/// The paper's Fig. 6 (`0x0, 7x7, 5xA, Ex6, FxF`).
pub fn figure6() -> WaveformFigure {
    waveform_figure("Figure 6", super::SEQUENCE_FIG6, TimeDelta::from_ps(1.0))
}

/// The paper's Fig. 7 (`0x0, FxF, 0x0, FxF, 0x0`).
pub fn figure7() -> WaveformFigure {
    waveform_figure("Figure 7", super::SEQUENCE_FIG7, TimeDelta::from_ps(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_core::LogicLevel;

    fn quick_figure(pairs: &[(u64, u64)]) -> WaveformFigure {
        // A coarser analog step keeps unit tests fast; integration tests and
        // the reproduce binary use the full resolution.
        waveform_figure("test figure", pairs, TimeDelta::from_ps(4.0))
    }

    #[test]
    fn figure6_final_product_agrees_across_simulators() {
        let figure = quick_figure(super::super::SEQUENCE_FIG6);
        // Last multiplication is FxF = 225 = 0b11100001.
        let expected = 0xFu64 * 0xFu64;
        for trace in [&figure.analog, &figure.ddm, &figure.cdm] {
            let mut product = 0u64;
            for bit in 0..8 {
                if trace.get(&format!("s{bit}")).unwrap().final_level() == LogicLevel::High {
                    product |= 1 << bit;
                }
            }
            assert_eq!(product, expected);
        }
    }

    #[test]
    fn cdm_produces_at_least_as_many_edges_as_ddm() {
        let figure = quick_figure(super::super::SEQUENCE_FIG6);
        let ddm_edges: usize = figure.ddm.iter().map(|(_, w)| w.edge_count()).sum();
        let cdm_edges: usize = figure.cdm.iter().map(|(_, w)| w.edge_count()).sum();
        assert!(
            cdm_edges >= ddm_edges,
            "CDM edges {cdm_edges} < DDM edges {ddm_edges}"
        );
    }

    #[test]
    fn render_contains_all_output_signals_and_axis() {
        let figure = quick_figure(super::super::SEQUENCE_FIG7);
        let text = figure.render();
        for bit in 0..8 {
            assert!(text.contains(&format!("s{bit}")), "missing s{bit}");
        }
        assert!(text.contains("t (ns)"));
        assert!(text.contains("HALOTIS-DDM"));
        assert!(text.contains("overestimation"));
    }

    #[test]
    fn paper_order_puts_s7_first() {
        let figure = quick_figure(super::super::SEQUENCE_FIG6);
        let ordered = paper_order(&figure.ddm);
        let names: Vec<&str> = ordered.names().collect();
        assert_eq!(names.first(), Some(&"s7"));
        assert_eq!(names.last(), Some(&"s0"));
    }
}
