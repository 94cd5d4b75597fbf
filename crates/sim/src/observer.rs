//! Streaming observation of a simulation run.
//!
//! The engine used to record full per-net waveforms unconditionally —
//! glitch-count sweeps over thousands of stimuli paid waveform memory they
//! never read.  [`SimObserver`] inverts that: the engine *streams* what
//! happens (transitions emitted on nets, events cancelled at inputs, gates
//! evaluated through the delay model) and the observer decides what to keep.
//! [`CompiledCircuit::run_observed`] drives any observer;
//! [`CompiledCircuit::run_with`] is now a thin wrapper plugging in a
//! [`WaveformRecorder`] and packaging its trace as a
//! [`SimulationResult`](crate::SimulationResult).
//!
//! Shipped observers:
//!
//! * [`WaveformRecorder`] — today's behaviour: every transition of every
//!   net, as [`DigitalWaveform`]s,
//! * [`ActivityCounter`] — per-net transition counts and the run statistics,
//!   with **no** waveform allocation (the Table 1 quantities),
//! * [`VcdStreamer`] — VCD export without retaining ramp waveforms: the
//!   half-swing projection is folded incrementally and the document is
//!   written through [`halotis_waveform::vcd::StreamWriter`] at the end of
//!   the run,
//! * [`PowerAccumulator`] — switched-capacitance energy totals, computed
//!   online from the compiled net loads,
//! * `()` — the null observer, for pure-statistics runs,
//! * `(A, B)` — fan-out to two observers in one pass.
//!
//! # Example: Table 1 statistics without waveforms
//!
//! ```
//! use halotis_core::{LogicLevel, Time};
//! use halotis_netlist::{generators, technology};
//! use halotis_sim::{ActivityCounter, CompiledCircuit, SimulationConfig};
//! use halotis_waveform::Stimulus;
//!
//! let netlist = generators::c17();
//! let library = technology::cmos06();
//! let circuit = CompiledCircuit::compile(&netlist, &library)?;
//! let mut stimulus = Stimulus::new(library.default_input_slew());
//! for &input in netlist.primary_inputs() {
//!     let name = netlist.net(input).name();
//!     stimulus.set_initial(name, LogicLevel::Low);
//!     stimulus.drive(name, Time::from_ns(1.0), LogicLevel::High);
//! }
//!
//! let mut activity = ActivityCounter::new();
//! let mut state = circuit.new_state();
//! let stats = circuit.run_observed(&mut state, &stimulus, &SimulationConfig::ddm(), &mut activity)?;
//! assert_eq!(activity.total_transitions(), stats.output_transitions);
//! # Ok::<(), halotis_sim::SimulationError>(())
//! ```

use std::io::{self, Write};

use halotis_core::{Capacitance, GateId, LogicLevel, NetId, PinRef, Time, Voltage};
use halotis_delay::DelayOutcome;
use halotis_netlist::Netlist;
use halotis_waveform::vcd::StreamWriter;
use halotis_waveform::{DigitalWaveform, Trace, Transition};

use crate::compiled::CompiledCircuit;
use crate::event::Event;
use crate::stats::SimulationStats;

/// A streaming consumer of simulation activity.
///
/// All methods have empty default bodies: implement only what the analysis
/// needs.  The engine calls them in this order —
///
/// 1. [`begin`](SimObserver::begin), once, before any event is processed,
/// 2. [`on_transition`](SimObserver::on_transition) /
///    [`on_event_filtered`](SimObserver::on_event_filtered) /
///    [`on_gate_evaluated`](SimObserver::on_gate_evaluated), interleaved in
///    simulation order,
/// 3. [`finish`](SimObserver::finish), once, with the final statistics
///    (skipped when the run aborts with an error).
///
/// Observers are reusable unless documented otherwise: `begin` re-initialises
/// all internal state, so one observer instance can serve many runs (the
/// batch runner relies on this to reuse one observer per worker when the
/// caller chooses to).  [`VcdStreamer`] is the documented exception — it is
/// single-use, because a written document cannot be taken back.
pub trait SimObserver {
    /// The run is about to start.  `initial_levels` holds the settled level
    /// of every net, indexed by net id — the same levels a recorded waveform
    /// would start from.
    fn begin(&mut self, circuit: &CompiledCircuit<'_>, initial_levels: &[LogicLevel]) {
        let _ = (circuit, initial_levels);
    }

    /// A transition (linear ramp) was emitted on `net` — gate outputs *and*
    /// stimulus edges on primary inputs, exactly what waveform recording
    /// used to capture.
    fn on_transition(&mut self, net: NetId, transition: &Transition) {
        let _ = (net, transition);
    }

    /// A candidate event at `at` for input `pin` triggered the per-input
    /// cancellation rule (paper Fig. 4): the pending previous event was
    /// removed and the candidate discarded — the pulse never existed for
    /// this input.
    fn on_event_filtered(&mut self, pin: PinRef, at: Time) {
        let _ = (pin, at);
    }

    /// The delay model evaluated an output excitation of `gate` (the gate's
    /// output value changed and a timed transition was computed from
    /// `event`).
    fn on_gate_evaluated(&mut self, gate: GateId, event: &Event, outcome: &DelayOutcome) {
        let _ = (gate, event, outcome);
    }

    /// The run completed; `stats` are the same statistics the run returns.
    fn finish(&mut self, stats: &SimulationStats) {
        let _ = stats;
    }
}

/// The null observer: a pure-statistics run.
impl SimObserver for () {}

/// Fan-out: drives two observers in one pass (nest tuples for more).
impl<A: SimObserver, B: SimObserver> SimObserver for (A, B) {
    fn begin(&mut self, circuit: &CompiledCircuit<'_>, initial_levels: &[LogicLevel]) {
        self.0.begin(circuit, initial_levels);
        self.1.begin(circuit, initial_levels);
    }

    fn on_transition(&mut self, net: NetId, transition: &Transition) {
        self.0.on_transition(net, transition);
        self.1.on_transition(net, transition);
    }

    fn on_event_filtered(&mut self, pin: PinRef, at: Time) {
        self.0.on_event_filtered(pin, at);
        self.1.on_event_filtered(pin, at);
    }

    fn on_gate_evaluated(&mut self, gate: GateId, event: &Event, outcome: &DelayOutcome) {
        self.0.on_gate_evaluated(gate, event, outcome);
        self.1.on_gate_evaluated(gate, event, outcome);
    }

    fn finish(&mut self, stats: &SimulationStats) {
        self.0.finish(stats);
        self.1.finish(stats);
    }
}

/// Records every transition of every net — the engine's historical
/// behaviour, now one observer among others.
///
/// [`CompiledCircuit::run_with`] uses it internally and packages the trace
/// into a [`SimulationResult`](crate::SimulationResult); use it directly
/// with [`CompiledCircuit::run_observed`] to combine full waveforms with
/// other observers in a single pass.
#[derive(Clone, Debug, Default)]
pub struct WaveformRecorder {
    waveforms: Vec<DigitalWaveform>,
}

impl WaveformRecorder {
    /// An empty recorder; sized on [`begin`](SimObserver::begin).
    pub fn new() -> Self {
        Self::default()
    }

    /// The waveform recorded so far for `net`.
    pub fn waveform(&self, net: NetId) -> Option<&DigitalWaveform> {
        self.waveforms.get(net.index())
    }

    /// Drains the recording into a name-keyed trace, in the netlist's net
    /// declaration order.
    pub fn into_trace(mut self, netlist: &Netlist) -> Trace<DigitalWaveform> {
        let mut trace = Trace::new();
        for net in netlist.nets() {
            trace.insert(
                net.name(),
                std::mem::replace(
                    &mut self.waveforms[net.id().index()],
                    DigitalWaveform::new(LogicLevel::Unknown),
                ),
            );
        }
        trace
    }
}

impl SimObserver for WaveformRecorder {
    fn begin(&mut self, _circuit: &CompiledCircuit<'_>, initial_levels: &[LogicLevel]) {
        self.waveforms.clear();
        self.waveforms.extend(
            initial_levels
                .iter()
                .map(|&level| DigitalWaveform::new(level)),
        );
    }

    fn on_transition(&mut self, net: NetId, transition: &Transition) {
        self.waveforms[net.index()].push(*transition);
    }
}

/// Counts transitions per net without storing them — the switching-activity
/// quantities of the paper's Table 1 discussion, at O(nets) memory and zero
/// waveform allocation.
#[derive(Clone, Debug, Default)]
pub struct ActivityCounter {
    per_net: Vec<usize>,
    total: usize,
    stats: SimulationStats,
}

impl ActivityCounter {
    /// An empty counter; sized on [`begin`](SimObserver::begin).
    pub fn new() -> Self {
        Self::default()
    }

    /// Transitions counted on one net.
    pub fn transitions(&self, net: NetId) -> usize {
        self.per_net.get(net.index()).copied().unwrap_or(0)
    }

    /// Per-net transition counts, indexed by net id.
    pub fn per_net(&self) -> &[usize] {
        &self.per_net
    }

    /// Total transitions across all nets (equals the run's
    /// `output_transitions` statistic).
    pub fn total_transitions(&self) -> usize {
        self.total
    }

    /// The run statistics captured at [`finish`](SimObserver::finish).
    pub fn stats(&self) -> &SimulationStats {
        &self.stats
    }
}

impl SimObserver for ActivityCounter {
    fn begin(&mut self, _circuit: &CompiledCircuit<'_>, initial_levels: &[LogicLevel]) {
        self.per_net.clear();
        self.per_net.resize(initial_levels.len(), 0);
        self.total = 0;
        self.stats = SimulationStats::default();
    }

    fn on_transition(&mut self, net: NetId, _transition: &Transition) {
        self.per_net[net.index()] += 1;
        self.total += 1;
    }

    fn finish(&mut self, stats: &SimulationStats) {
        self.stats = *stats;
    }
}

/// Accumulates dynamic energy online: every transition contributes one full
/// `C_net · Vdd²` swing, using the net capacitances the
/// [`CompiledCircuit`] already holds.
///
/// Produces the same totals as
/// [`power::estimate_compiled`](crate::power::estimate_compiled) on a
/// recorded result, without recording anything.
#[derive(Clone, Debug, Default)]
pub struct PowerAccumulator {
    vdd: Voltage,
    net_loads: Vec<Capacitance>,
    counts: Vec<usize>,
}

impl PowerAccumulator {
    /// An empty accumulator; sized on [`begin`](SimObserver::begin).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total dynamic energy accumulated so far, in joules.
    pub fn total_joules(&self) -> f64 {
        let vdd_squared = self.vdd.as_volts() * self.vdd.as_volts();
        self.counts
            .iter()
            .zip(&self.net_loads)
            .map(|(&count, load)| load.as_farads() * vdd_squared * count as f64)
            .sum()
    }

    /// Total number of net transitions that contributed energy.
    pub fn total_transitions(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Packages the accumulated activity as a full
    /// [`PowerReport`](crate::power::PowerReport) (per-net breakdown,
    /// hotspots), identical to estimating from a recorded result.
    pub fn report(&self, netlist: &Netlist) -> crate::power::PowerReport {
        crate::power::report_from_counts(netlist, &self.net_loads, self.vdd, &self.counts)
    }
}

impl SimObserver for PowerAccumulator {
    fn begin(&mut self, circuit: &CompiledCircuit<'_>, _initial_levels: &[LogicLevel]) {
        self.vdd = circuit.vdd();
        self.net_loads.clear();
        self.net_loads.extend_from_slice(circuit.net_loads());
        self.counts.clear();
        self.counts.resize(self.net_loads.len(), 0);
    }

    fn on_transition(&mut self, net: NetId, _transition: &Transition) {
        self.counts[net.index()] += 1;
    }
}

/// Streams the run as a VCD document without retaining ramp waveforms.
///
/// During the run each transition is folded into the half-swing ideal
/// projection incrementally — compact `(time, level)` change points instead
/// of full ramp waveforms.  Nothing reaches the writer until
/// [`finish`](SimObserver::finish): the paper's per-input cancellation means
/// an accepted change can still be revoked by a later ramp, so the document
/// body cannot be flushed mid-run.  At `finish` the header (every net of
/// the circuit, in declaration order) and the time-merged change points are
/// written through [`halotis_waveform::vcd::StreamWriter`]; a run that
/// aborts with an error writes nothing.
///
/// The produced document is byte-identical to exporting a recorded result's
/// full trace with [`halotis_waveform::vcd::write`].
///
/// Unlike the other shipped observers, a `VcdStreamer` is **single-use**:
/// the writer cannot take back an already written document, so a second run
/// on the same instance is refused (surfaced as an error by
/// [`into_result`](VcdStreamer::into_result)) instead of appending a second
/// document.  Create one streamer per run.
///
/// I/O errors are deferred: observer callbacks cannot fail, so errors are
/// captured and surfaced by [`into_result`](VcdStreamer::into_result).
#[derive(Debug)]
pub struct VcdStreamer<W: Write> {
    writer: Option<W>,
    scope: String,
    vdd: Voltage,
    initials: Vec<LogicLevel>,
    names: Vec<String>,
    changes: Vec<Vec<(Time, LogicLevel)>>,
    error: Option<io::Error>,
    finished: bool,
}

impl<W: Write> VcdStreamer<W> {
    /// A streamer writing a document with module name `scope` to `writer`.
    pub fn new(writer: W, scope: impl Into<String>) -> Self {
        VcdStreamer {
            writer: Some(writer),
            scope: scope.into(),
            vdd: Voltage::ZERO,
            initials: Vec::new(),
            names: Vec::new(),
            changes: Vec::new(),
            error: None,
            finished: false,
        }
    }

    /// Consumes the streamer, returning the writer — or the first I/O error
    /// encountered, or an error when the run never reached
    /// [`finish`](SimObserver::finish) (so the document body was never
    /// written).
    pub fn into_result(self) -> io::Result<W> {
        if let Some(error) = self.error {
            return Err(error);
        }
        if !self.finished {
            return Err(io::Error::other(
                "simulation did not finish; VCD body not written",
            ));
        }
        Ok(self.writer.expect("writer present until consumed"))
    }
}

impl<W: Write> SimObserver for VcdStreamer<W> {
    fn begin(&mut self, circuit: &CompiledCircuit<'_>, initial_levels: &[LogicLevel]) {
        if self.finished {
            // A document was already written; appending a second one would
            // corrupt it.  Refuse the run and surface it via into_result.
            self.writer = None;
            self.finished = false;
            self.error = Some(io::Error::other(
                "VcdStreamer is single-use: create a new streamer per run",
            ));
            return;
        }
        self.vdd = circuit.vdd();
        self.initials = initial_levels.to_vec();
        self.names = circuit
            .netlist()
            .nets()
            .iter()
            .map(|net| net.name().to_string())
            .collect();
        self.changes.clear();
        self.changes.resize(self.names.len(), Vec::new());
        self.error = None;
        self.finished = false;
    }

    fn on_transition(&mut self, net: NetId, transition: &Transition) {
        let Some(cross) = transition.crossing_time(self.vdd.half(), self.vdd) else {
            return;
        };
        // Incremental half-swing projection, mirroring
        // `DigitalWaveform::ideal`: an overtaken change is revoked, a
        // level-preserving crossing is dropped.
        let changes = &mut self.changes[net.index()];
        let target = transition.edge().target_level();
        while let Some(&(last_time, _)) = changes.last() {
            if cross <= last_time {
                changes.pop();
            } else {
                break;
            }
        }
        let current = changes
            .last()
            .map(|&(_, level)| level)
            .unwrap_or(self.initials[net.index()]);
        if current != target {
            changes.push((cross, target));
        }
    }

    fn finish(&mut self, _stats: &SimulationStats) {
        let Some(writer) = self.writer.take() else {
            return;
        };
        let signals: Vec<(&str, LogicLevel)> = self
            .names
            .iter()
            .map(String::as_str)
            .zip(self.initials.iter().copied())
            .collect();
        let mut events: Vec<(Time, usize, LogicLevel)> = Vec::new();
        for (index, changes) in self.changes.iter().enumerate() {
            for &(t, level) in changes {
                events.push((t, index, level));
            }
        }
        events.sort_by_key(|&(t, index, _)| (t, index));

        let outcome = (|| -> io::Result<W> {
            let mut stream = StreamWriter::new(writer, &self.scope, &signals)?;
            for (t, index, level) in events {
                stream.change(t, index, level)?;
            }
            Ok(stream.into_inner())
        })();
        match outcome {
            Ok(writer) => {
                self.writer = Some(writer);
                self.finished = true;
            }
            Err(error) => self.error = Some(error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{power, SimulationConfig};
    use halotis_core::Time;
    use halotis_netlist::{generators, technology, Library};
    use halotis_waveform::{vcd, Stimulus};

    fn chain_stimulus(library: &Library) -> Stimulus {
        let mut stimulus = Stimulus::new(library.default_input_slew());
        stimulus.set_initial("in", LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(1.0), LogicLevel::High);
        stimulus.drive("in", Time::from_ns(1.3), LogicLevel::Low);
        stimulus.drive("in", Time::from_ns(4.0), LogicLevel::High);
        stimulus
    }

    #[test]
    fn activity_counter_matches_recorded_waveform_lengths() {
        let netlist = generators::inverter_chain(5);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let stimulus = chain_stimulus(&library);

        let mut state = circuit.new_state();
        let result = circuit
            .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
            .unwrap();
        let mut activity = ActivityCounter::new();
        let stats = circuit
            .run_observed(
                &mut state,
                &stimulus,
                &SimulationConfig::ddm(),
                &mut activity,
            )
            .unwrap();

        assert_eq!(&stats, result.stats());
        assert_eq!(activity.stats(), result.stats());
        assert_eq!(activity.total_transitions(), stats.output_transitions);
        for net in netlist.nets() {
            assert_eq!(
                activity.transitions(net.id()),
                result.waveform(net.name()).unwrap().len(),
                "count mismatch on {}",
                net.name()
            );
        }
        assert_eq!(activity.per_net().len(), netlist.net_count());
    }

    #[test]
    fn power_accumulator_matches_the_recorded_estimate() {
        let netlist = generators::c17();
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut stimulus = Stimulus::new(library.default_input_slew());
        for &input in netlist.primary_inputs() {
            let name = netlist.net(input).name();
            stimulus.set_initial(name, LogicLevel::Low);
            stimulus.drive(name, Time::from_ns(1.0), LogicLevel::High);
        }

        let mut state = circuit.new_state();
        let result = circuit
            .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
            .unwrap();
        let recorded = power::estimate_compiled(&circuit, &result);

        let mut accumulator = PowerAccumulator::new();
        circuit
            .run_observed(
                &mut state,
                &stimulus,
                &SimulationConfig::ddm(),
                &mut accumulator,
            )
            .unwrap();
        assert_eq!(accumulator.report(&netlist), recorded);
        assert!((accumulator.total_joules() - recorded.total_joules()).abs() < 1e-18);
        assert_eq!(
            accumulator.total_transitions(),
            recorded.total_transitions()
        );
    }

    #[test]
    fn vcd_streamer_matches_the_batch_export() {
        let netlist = generators::inverter_chain(4);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let stimulus = chain_stimulus(&library);

        let mut state = circuit.new_state();
        let result = circuit
            .run_with(&mut state, &stimulus, &SimulationConfig::ddm())
            .unwrap();
        let batch = vcd::to_string("chain", &result.full_trace());

        let mut streamer = VcdStreamer::new(Vec::new(), "chain");
        circuit
            .run_observed(
                &mut state,
                &stimulus,
                &SimulationConfig::ddm(),
                &mut streamer,
            )
            .unwrap();
        let streamed = String::from_utf8(streamer.into_result().unwrap()).unwrap();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn vcd_streamer_reports_unfinished_runs() {
        let streamer: VcdStreamer<Vec<u8>> = VcdStreamer::new(Vec::new(), "scope");
        assert!(streamer.into_result().is_err());
    }

    #[test]
    fn vcd_streamer_refuses_a_second_run() {
        let netlist = generators::inverter_chain(2);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let stimulus = chain_stimulus(&library);
        let mut streamer = VcdStreamer::new(Vec::new(), "chain");
        let mut state = circuit.new_state();
        for _ in 0..2 {
            circuit
                .run_observed(
                    &mut state,
                    &stimulus,
                    &SimulationConfig::ddm(),
                    &mut streamer,
                )
                .unwrap();
        }
        // The second run must not append a second document; it is refused.
        let error = streamer.into_result().unwrap_err();
        assert!(error.to_string().contains("single-use"), "{error}");
    }

    #[test]
    fn tuple_observer_drives_both() {
        let netlist = generators::inverter_chain(3);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let stimulus = chain_stimulus(&library);
        let mut pair = (ActivityCounter::new(), PowerAccumulator::new());
        let mut state = circuit.new_state();
        let stats = circuit
            .run_observed(&mut state, &stimulus, &SimulationConfig::ddm(), &mut pair)
            .unwrap();
        assert_eq!(pair.0.total_transitions(), stats.output_transitions);
        assert_eq!(pair.1.total_transitions(), stats.output_transitions);
        assert!(pair.1.total_joules() > 0.0);
    }

    #[test]
    fn observers_reset_between_runs() {
        let netlist = generators::inverter_chain(3);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let stimulus = chain_stimulus(&library);
        let mut activity = ActivityCounter::new();
        let mut state = circuit.new_state();
        let first = circuit
            .run_observed(
                &mut state,
                &stimulus,
                &SimulationConfig::ddm(),
                &mut activity,
            )
            .unwrap();
        let total_first = activity.total_transitions();
        circuit
            .run_observed(
                &mut state,
                &stimulus,
                &SimulationConfig::ddm(),
                &mut activity,
            )
            .unwrap();
        assert_eq!(activity.total_transitions(), total_first);
        assert_eq!(first.output_transitions, total_first);
    }
}
