//! Switching-activity based dynamic-power estimation.
//!
//! The paper motivates accurate glitch handling with power analysis: a delay
//! model that propagates glitches the real circuit would swallow
//! overestimates the switching activity — and therefore the dynamic power —
//! by tens of percent (Table 1 discussion).  This module turns a
//! [`SimulationResult`] into per-net and total dynamic energy using the
//! standard `E = Σ C_net · Vdd² · N_transitions` model, so the DDM/CDM power
//! gap can be quantified directly.

use halotis_core::{Capacitance, Voltage};
use halotis_netlist::library::LibraryError;
use halotis_netlist::{Library, Netlist};

use crate::compiled::CompiledCircuit;
use crate::result::SimulationResult;

/// Dynamic-energy estimate of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerReport {
    vdd: Voltage,
    per_net: Vec<NetEnergy>,
    total_joules: f64,
    total_transitions: usize,
}

/// Energy attributed to one net.
#[derive(Clone, Debug, PartialEq)]
pub struct NetEnergy {
    /// The net name.
    pub net: String,
    /// The switched capacitance of the net (fanout input capacitance plus
    /// wire capacitance).
    pub capacitance: Capacitance,
    /// Number of transitions recorded on the net.
    pub transitions: usize,
    /// `C · Vdd² · transitions`, in joules.
    pub energy_joules: f64,
}

impl PowerReport {
    /// Total dynamic energy of the run, in joules.
    pub fn total_joules(&self) -> f64 {
        self.total_joules
    }

    /// Total number of net transitions that contributed energy.
    pub fn total_transitions(&self) -> usize {
        self.total_transitions
    }

    /// The supply voltage used for the estimate.
    pub fn vdd(&self) -> Voltage {
        self.vdd
    }

    /// Per-net contributions, sorted from the most to the least energetic.
    pub fn per_net(&self) -> &[NetEnergy] {
        &self.per_net
    }

    /// The `count` most energetic nets — the usual starting point of a
    /// glitch-power clean-up.
    pub fn hotspots(&self, count: usize) -> &[NetEnergy] {
        &self.per_net[..count.min(self.per_net.len())]
    }

    /// Relative overestimation of `other` with respect to `self`, in
    /// percent.  Calling this on a DDM report with a CDM report as `other`
    /// gives the power-overestimation figure the paper's Table 1 discussion
    /// refers to.
    pub fn overestimation_percent(&self, other: &PowerReport) -> f64 {
        if self.total_joules <= 0.0 {
            return 0.0;
        }
        (other.total_joules - self.total_joules) / self.total_joules * 100.0
    }
}

/// Estimates the dynamic energy of a simulation run.
///
/// Every transition recorded on a net (including runt pulses) contributes
/// one full `C · Vdd²` charge/discharge.  That is slightly pessimistic for
/// partial-swing pulses but identical for the DDM and CDM runs, so the
/// *ratio* between them — the quantity of interest — is unaffected.
///
/// # Errors
///
/// Returns a [`LibraryError`] if a fanout cell of some net is not
/// characterised in `library`.
///
/// # Example
///
/// ```
/// use halotis_core::{LogicLevel, Time};
/// use halotis_netlist::{generators, technology};
/// use halotis_sim::{power, CompiledCircuit, SimulationConfig};
/// use halotis_waveform::Stimulus;
///
/// let netlist = generators::inverter_chain(3);
/// let library = technology::cmos06();
/// let mut stimulus = Stimulus::new(library.default_input_slew());
/// stimulus.set_initial("in", LogicLevel::Low);
/// stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
/// let circuit = CompiledCircuit::compile(&netlist, &library)?;
/// let result = circuit.run_with(&mut circuit.new_state(), &stimulus, &SimulationConfig::ddm())?;
/// let report = power::estimate(&netlist, &library, &result)?;
/// assert!(report.total_joules() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn estimate(
    netlist: &Netlist,
    library: &Library,
    result: &SimulationResult,
) -> Result<PowerReport, LibraryError> {
    let net_loads: Vec<Capacitance> = netlist
        .nets()
        .iter()
        .map(|net| netlist.net_load(net.id(), library))
        .collect::<Result<_, _>>()?;
    Ok(estimate_from_loads(netlist, &net_loads, result))
}

/// As [`estimate`], but reusing the net capacitances a [`CompiledCircuit`]
/// already computed — the right call inside a batch sweep, where recomputing
/// every net load per scenario would repeat part of the static preparation
/// the compiled core exists to avoid.
///
/// Infallible: the compilation step already validated every fanout cell.
///
/// # Example
///
/// ```
/// use halotis_core::{LogicLevel, Time};
/// use halotis_netlist::{generators, technology};
/// use halotis_sim::{power, CompiledCircuit, SimulationConfig};
/// use halotis_waveform::Stimulus;
///
/// let netlist = generators::inverter_chain(3);
/// let library = technology::cmos06();
/// let circuit = CompiledCircuit::compile(&netlist, &library)?;
/// let mut stimulus = Stimulus::new(library.default_input_slew());
/// stimulus.set_initial("in", LogicLevel::Low);
/// stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
/// let result = circuit.run_with(&mut circuit.new_state(), &stimulus, &SimulationConfig::ddm())?;
/// let report = power::estimate_compiled(&circuit, &result);
/// assert!(report.total_joules() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn estimate_compiled(circuit: &CompiledCircuit<'_>, result: &SimulationResult) -> PowerReport {
    estimate_from_loads(circuit.netlist(), circuit.net_loads(), result)
}

fn estimate_from_loads(
    netlist: &Netlist,
    net_loads: &[Capacitance],
    result: &SimulationResult,
) -> PowerReport {
    let counts: Vec<usize> = netlist
        .nets()
        .iter()
        .map(|net| {
            result
                .waveform(net.name())
                .map(|waveform| waveform.len())
                .unwrap_or(0)
        })
        .collect();
    report_from_counts(netlist, net_loads, result.vdd(), &counts)
}

/// Builds a report from per-net transition counts (indexed by net id) — the
/// shared core behind the result-walking estimators and the streaming
/// [`PowerAccumulator`](crate::PowerAccumulator) observer.
pub(crate) fn report_from_counts(
    netlist: &Netlist,
    net_loads: &[Capacitance],
    vdd: Voltage,
    counts: &[usize],
) -> PowerReport {
    let vdd_squared = vdd.as_volts() * vdd.as_volts();
    let mut per_net = Vec::with_capacity(netlist.net_count());
    let mut total_joules = 0.0;
    let mut total_transitions = 0usize;
    for net in netlist.nets() {
        let transitions = counts.get(net.id().index()).copied().unwrap_or(0);
        let capacitance = net_loads[net.id().index()];
        let energy = capacitance.as_farads() * vdd_squared * transitions as f64;
        total_joules += energy;
        total_transitions += transitions;
        per_net.push(NetEnergy {
            net: net.name().to_string(),
            capacitance,
            transitions,
            energy_joules: energy,
        });
    }
    per_net.sort_by(|a, b| {
        b.energy_joules
            .partial_cmp(&a.energy_joules)
            .expect("energies are finite")
    });
    PowerReport {
        vdd,
        per_net,
        total_joules,
        total_transitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledCircuit, SimulationConfig};
    use halotis_core::{LogicLevel, Time};
    use halotis_netlist::{generators, technology};
    use halotis_waveform::Stimulus;

    fn chain_report(edges: &[(f64, LogicLevel)]) -> (PowerReport, PowerReport) {
        let netlist = generators::inverter_chain(5);
        let library = technology::cmos06();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        for &(at, level) in edges {
            stimulus.drive("in", Time::from_ns(at), level);
        }
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut state = circuit.new_state();
        let ddm = circuit.run_with(&mut state, &stimulus, &SimulationConfig::ddm());
        let cdm = circuit.run_with(&mut state, &stimulus, &SimulationConfig::cdm());
        let (ddm, cdm) = (ddm.unwrap(), cdm.unwrap());
        (
            estimate(&netlist, &library, &ddm).unwrap(),
            estimate(&netlist, &library, &cdm).unwrap(),
        )
    }

    #[test]
    fn single_edge_costs_one_swing_per_net() {
        let (ddm, _) = chain_report(&[(1.0, LogicLevel::High)]);
        // One transition on the input plus one per chain stage.
        assert_eq!(ddm.total_transitions(), 6);
        assert!(ddm.total_joules() > 0.0);
        assert_eq!(ddm.vdd().as_volts(), 5.0);
    }

    #[test]
    fn cdm_energy_is_at_least_ddm_energy_for_glitchy_input() {
        let (ddm, cdm) = chain_report(&[
            (1.0, LogicLevel::High),
            (1.3, LogicLevel::Low),
            (4.0, LogicLevel::High),
        ]);
        assert!(cdm.total_joules() >= ddm.total_joules());
        assert!(ddm.overestimation_percent(&cdm) >= 0.0);
    }

    #[test]
    fn hotspots_are_sorted_by_energy() {
        let (ddm, _) = chain_report(&[(1.0, LogicLevel::High), (3.0, LogicLevel::Low)]);
        let hotspots = ddm.hotspots(3);
        assert_eq!(hotspots.len(), 3);
        assert!(hotspots[0].energy_joules >= hotspots[1].energy_joules);
        assert!(hotspots[1].energy_joules >= hotspots[2].energy_joules);
        // Asking for more hotspots than nets clamps.
        assert_eq!(ddm.hotspots(1000).len(), ddm.per_net().len());
    }

    #[test]
    fn empty_run_has_zero_energy_and_zero_overestimation() {
        let netlist = generators::inverter_chain(2);
        let library = technology::cmos06();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut state = circuit.new_state();
        let result = circuit
            .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
            .unwrap();
        let report = estimate(&netlist, &library, &result).unwrap();
        assert_eq!(report.total_transitions(), 0);
        assert_eq!(report.total_joules(), 0.0);
        assert_eq!(report.overestimation_percent(&report.clone()), 0.0);
    }

    #[test]
    fn compiled_estimate_matches_the_library_walking_estimate() {
        let netlist = generators::inverter_chain(4);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        let mut state = circuit.new_state();
        let result = circuit
            .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
            .unwrap();
        let walked = estimate(&netlist, &library, &result).unwrap();
        let compiled = estimate_compiled(&circuit, &result);
        assert_eq!(walked, compiled);
    }

    #[test]
    fn energy_is_consistent_with_hand_calculation() {
        let netlist = generators::inverter_chain(1);
        let library = technology::cmos06();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut state = circuit.new_state();
        let result = circuit
            .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
            .unwrap();
        let report = estimate(&netlist, &library, &result).unwrap();
        let expected: f64 = report
            .per_net()
            .iter()
            .map(|net| net.capacitance.as_farads() * 25.0 * net.transitions as f64)
            .sum();
        assert!((report.total_joules() - expected).abs() < 1e-18);
    }
}
