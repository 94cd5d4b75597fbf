//! Parallel batch execution of many scenarios over one compiled circuit.
//!
//! Multi-run workloads — the Table 1/2 sweeps, the pulse-width scan,
//! Monte-Carlo stimulus sets — all share one shape: a fixed circuit, many
//! `(stimulus, config)` pairs.  [`BatchRunner`] executes such a sweep across
//! `std::thread::scope` workers that share one immutable
//! [`CompiledCircuit`]; each worker owns a single
//! [`SimState`] arena reused for every scenario it picks
//! up, so the whole batch performs one static preparation and `threads`
//! arena allocations, total.
//!
//! Results are deterministic: scenarios are independent, so the outcome
//! vector is identical whatever the thread count — only wall-clock time
//! changes.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use halotis_waveform::Stimulus;

use crate::compiled::CompiledCircuit;
use crate::config::SimulationConfig;
use crate::error::SimulationError;
use crate::observer::SimObserver;
use crate::state::SimState;
use crate::stats::SimulationStats;

/// One unit of batch work: a stimulus plus the configuration to run it
/// under, with a label for reporting.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable scenario label (e.g. `"fig6/ddm"` or `"width=300ps"`).
    pub label: String,
    /// The stimulus to apply.
    pub stimulus: Stimulus,
    /// The simulation configuration (delay model, limits).
    pub config: SimulationConfig,
}

impl Scenario {
    /// Creates a scenario.
    pub fn new(label: impl Into<String>, stimulus: Stimulus, config: SimulationConfig) -> Self {
        Scenario {
            label: label.into(),
            stimulus,
            config,
        }
    }

    /// The canonical DDM/CDM scenario pair for one stimulus: element 0 runs
    /// the degradation model (label `<label>/ddm`), element 1 the
    /// conventional model (label `<label>/cdm`), both deriving their other
    /// settings from `base`.
    ///
    /// Sweeps that compare the two models submit these pairs and read the
    /// report back in `chunks(2)` — keeping the pairing order defined here,
    /// in one place.
    pub fn both_models(
        label: impl AsRef<str>,
        stimulus: Stimulus,
        base: SimulationConfig,
    ) -> [Scenario; 2] {
        let ddm = base
            .clone()
            .model(halotis_delay::DelayModelKind::Degradation);
        let cdm = base.model(halotis_delay::DelayModelKind::Conventional);
        [
            Scenario::new(format!("{}/ddm", label.as_ref()), stimulus.clone(), ddm),
            Scenario::new(format!("{}/cdm", label.as_ref()), stimulus, cdm),
        ]
    }
}

/// The outcome of one scenario of an observed batch run
/// ([`BatchRunner::run_observed`]): the populated per-scenario observer plus
/// the run statistics (or the error that aborted the scenario).
#[derive(Debug)]
pub struct ObservedOutcome<O> {
    /// The scenario label, copied from the input.
    pub label: String,
    /// The run statistics, or the error that aborted this scenario.  One
    /// failing scenario does not abort the rest of the batch.
    pub stats: Result<SimulationStats, SimulationError>,
    /// The observer that watched this scenario, carrying whatever it chose
    /// to retain.  On error it holds whatever was observed before the abort.
    pub observer: O,
}

/// The report of an observed batch run ([`BatchRunner::run_observed`]):
/// per-scenario outcomes in submission order plus aggregate statistics.
#[derive(Debug)]
pub struct ObservedReport<O> {
    outcomes: Vec<ObservedOutcome<O>>,
    totals: SimulationStats,
    succeeded: usize,
    wall_time: Duration,
    threads: usize,
}

impl<O> ObservedReport<O> {
    /// Per-scenario outcomes, in the order the scenarios were submitted.
    pub fn outcomes(&self) -> &[ObservedOutcome<O>] {
        &self.outcomes
    }

    /// Consumes the report, yielding the outcomes in submission order.
    pub fn into_outcomes(self) -> Vec<ObservedOutcome<O>> {
        self.outcomes
    }

    /// Statistics summed over every successful scenario.
    pub fn totals(&self) -> &SimulationStats {
        &self.totals
    }

    /// Number of scenarios in the batch.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// `true` when the batch contained no scenarios.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Number of scenarios that completed successfully.
    pub fn succeeded(&self) -> usize {
        self.succeeded
    }

    /// Number of scenarios that failed.
    pub fn failed(&self) -> usize {
        self.outcomes.len() - self.succeeded
    }

    /// Wall-clock time of the whole batch, including scheduling overhead.
    pub fn wall_time(&self) -> Duration {
        self.wall_time
    }

    /// Number of worker threads the batch actually used.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The observers of the successful scenarios, in submission order.
    pub fn observers(&self) -> impl Iterator<Item = &O> {
        self.outcomes
            .iter()
            .filter(|outcome| outcome.stats.is_ok())
            .map(|outcome| &outcome.observer)
    }
}

/// Executes many scenarios against one [`CompiledCircuit`], in parallel.
///
/// # Example
///
/// ```
/// use halotis_core::{LogicLevel, Time};
/// use halotis_netlist::{generators, technology};
/// use halotis_sim::{BatchRunner, CompiledCircuit, Scenario, SimulationConfig, WaveformRecorder};
/// use halotis_waveform::Stimulus;
///
/// let netlist = generators::inverter_chain(4);
/// let library = technology::cmos06();
/// let circuit = CompiledCircuit::compile(&netlist, &library)?;
///
/// let scenarios: Vec<Scenario> = (1..=8)
///     .map(|i| {
///         let mut stimulus = Stimulus::new(library.default_input_slew());
///         stimulus.set_initial("in", LogicLevel::Low);
///         stimulus.drive("in", Time::from_ns(i as f64), LogicLevel::High);
///         Scenario::new(format!("edge@{i}ns"), stimulus, SimulationConfig::ddm())
///     })
///     .collect();
///
/// let report = BatchRunner::new().run_observed(&circuit, &scenarios, |_, _| WaveformRecorder::new());
/// assert_eq!(report.len(), 8);
/// assert_eq!(report.failed(), 0);
/// assert!(report.totals().events_processed > 0);
/// let out = netlist.net_id("out").unwrap();
/// assert!(report.observers().all(|recorder| recorder.waveform(out).is_some()));
/// # Ok::<(), halotis_sim::SimulationError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner {
    threads: NonZeroUsize,
}

impl BatchRunner {
    /// A runner using every hardware thread the platform reports (at least
    /// one).
    pub fn new() -> Self {
        BatchRunner {
            threads: std::thread::available_parallelism()
                .unwrap_or(NonZeroUsize::new(1).expect("1 is non-zero")),
        }
    }

    /// A runner with an explicit worker count; `0` is clamped to `1`.
    pub fn with_threads(threads: usize) -> Self {
        BatchRunner {
            threads: NonZeroUsize::new(threads.max(1)).expect("clamped to at least 1"),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Runs every scenario through a per-scenario [`SimObserver`], collecting
    /// the observers (and run statistics) in submission order.
    ///
    /// Nothing is recorded beyond what each observer keeps: a
    /// [`WaveformRecorder`](crate::WaveformRecorder) retains full waveforms,
    /// an [`ActivityCounter`](crate::ActivityCounter) only counts.
    /// `make_observer` is called once per scenario (with its index and the
    /// scenario) on the worker thread about to run it; the populated
    /// observer is handed back in the report.
    ///
    /// Workers pull scenarios from a shared cursor, so an expensive scenario
    /// does not serialise the rest of the sweep behind it.  Each worker
    /// reuses one [`SimState`] arena across all scenarios it executes.
    /// Failures are recorded per scenario and never abort the batch.
    ///
    /// # Example: glitch statistics for thousands of stimuli, no waveforms
    ///
    /// ```
    /// use halotis_core::{LogicLevel, Time};
    /// use halotis_netlist::{generators, technology};
    /// use halotis_sim::{ActivityCounter, BatchRunner, CompiledCircuit, Scenario, SimulationConfig};
    /// use halotis_waveform::Stimulus;
    ///
    /// let netlist = generators::inverter_chain(4);
    /// let library = technology::cmos06();
    /// let circuit = CompiledCircuit::compile(&netlist, &library)?;
    /// let scenarios: Vec<Scenario> = (1..=16)
    ///     .map(|i| {
    ///         let mut stimulus = Stimulus::new(library.default_input_slew());
    ///         stimulus.set_initial("in", LogicLevel::Low);
    ///         stimulus.drive("in", Time::from_ns(i as f64), LogicLevel::High);
    ///         Scenario::new(format!("edge@{i}ns"), stimulus, SimulationConfig::ddm())
    ///     })
    ///     .collect();
    ///
    /// let report = BatchRunner::new().run_observed(&circuit, &scenarios, |_, _| ActivityCounter::new());
    /// assert_eq!(report.len(), 16);
    /// let out = netlist.net_id("out").unwrap();
    /// for outcome in report.outcomes() {
    ///     assert!(outcome.stats.is_ok());
    ///     assert_eq!(outcome.observer.transitions(out), 1);
    /// }
    /// # Ok::<(), halotis_sim::SimulationError>(())
    /// ```
    pub fn run_observed<O, F>(
        &self,
        circuit: &CompiledCircuit<'_>,
        scenarios: &[Scenario],
        make_observer: F,
    ) -> ObservedReport<O>
    where
        O: SimObserver + Send,
        F: Fn(usize, &Scenario) -> O + Sync,
    {
        let started = Instant::now();
        let threads = self.threads.get().min(scenarios.len()).max(1);
        let job = |state: &mut SimState, index: usize, scenario: &Scenario| {
            let mut observer = make_observer(index, scenario);
            let stats =
                circuit.run_observed(state, &scenario.stimulus, &scenario.config, &mut observer);
            ObservedOutcome {
                label: scenario.label.clone(),
                stats,
                observer,
            }
        };

        let outcomes: Vec<ObservedOutcome<O>> = if threads == 1 {
            // Single-worker batches run inline: no thread spawn, no mutex —
            // spawning a scoped thread and locking per scenario costs more
            // than an entire small-circuit scenario, and single-thread is the
            // reference configuration for deterministic timing measurements.
            let mut state = circuit.new_state();
            scenarios
                .iter()
                .enumerate()
                .map(|(index, scenario)| job(&mut state, index, scenario))
                .collect()
        } else {
            let cursor = AtomicUsize::new(0);
            let slots: Mutex<Vec<Option<ObservedOutcome<O>>>> =
                Mutex::new((0..scenarios.len()).map(|_| None).collect());
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let mut state = circuit.new_state();
                        loop {
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(scenario) = scenarios.get(index) else {
                                break;
                            };
                            let outcome = job(&mut state, index, scenario);
                            slots.lock().expect("no worker panicked holding the lock")[index] =
                                Some(outcome);
                        }
                    });
                }
            });
            slots
                .into_inner()
                .expect("all workers joined")
                .into_iter()
                .map(|slot| slot.expect("every index below the cursor was filled"))
                .collect()
        };

        let mut totals = SimulationStats::default();
        let mut succeeded = 0;
        for stats in outcomes
            .iter()
            .filter_map(|outcome| outcome.stats.as_ref().ok())
        {
            totals.merge(stats);
            succeeded += 1;
        }
        ObservedReport {
            outcomes,
            totals,
            succeeded,
            wall_time: started.elapsed(),
            threads,
        }
    }
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::WaveformRecorder;
    use halotis_core::{LogicLevel, Time};
    use halotis_netlist::{generators, technology};

    fn record(
        runner: BatchRunner,
        circuit: &CompiledCircuit<'_>,
        scenarios: &[Scenario],
    ) -> ObservedReport<WaveformRecorder> {
        runner.run_observed(circuit, scenarios, |_, _| WaveformRecorder::new())
    }

    fn chain_scenarios(library: &halotis_netlist::Library, count: usize) -> Vec<Scenario> {
        (0..count)
            .map(|i| {
                let mut stimulus = Stimulus::new(library.default_input_slew());
                stimulus.set_initial("in", LogicLevel::Low);
                stimulus.drive("in", Time::from_ns(1.0 + 0.25 * i as f64), LogicLevel::High);
                Scenario::new(format!("s{i}"), stimulus, SimulationConfig::ddm())
            })
            .collect()
    }

    #[test]
    fn outcomes_preserve_submission_order_and_labels() {
        let netlist = generators::inverter_chain(3);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let scenarios = chain_scenarios(&library, 7);
        let report = record(BatchRunner::with_threads(3), &circuit, &scenarios);
        assert_eq!(report.len(), 7);
        assert!(!report.is_empty());
        assert_eq!(report.failed(), 0);
        assert_eq!(report.succeeded(), 7);
        assert_eq!(report.threads(), 3);
        for (index, outcome) in report.outcomes().iter().enumerate() {
            assert_eq!(outcome.label, format!("s{index}"));
        }
        assert_eq!(report.observers().count(), 7);
    }

    #[test]
    fn parallel_results_match_sequential_results() {
        let netlist = generators::multiplier(3, 3);
        let ports = generators::MultiplierPorts::new(3, 3);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let scenarios: Vec<Scenario> = (0u64..12)
            .map(|i| {
                let mut stimulus = Stimulus::new(library.default_input_slew());
                for bit in ports.a_refs().iter().chain(ports.b_refs().iter()) {
                    stimulus.set_initial(*bit, LogicLevel::Low);
                }
                stimulus.drive_bus_value(&ports.a_refs(), i % 8, Time::from_ns(1.0));
                stimulus.drive_bus_value(&ports.b_refs(), (i * 3) % 8, Time::from_ns(1.0));
                Scenario::new(format!("{i}"), stimulus, SimulationConfig::ddm())
            })
            .collect();
        let sequential = record(BatchRunner::with_threads(1), &circuit, &scenarios);
        let parallel = record(BatchRunner::with_threads(4), &circuit, &scenarios);
        assert_eq!(sequential.totals(), parallel.totals());
        for (a, b) in sequential.outcomes().iter().zip(parallel.outcomes()) {
            assert_eq!(a.stats.as_ref().unwrap(), b.stats.as_ref().unwrap());
            for net in netlist.nets() {
                assert_eq!(a.observer.waveform(net.id()), b.observer.waveform(net.id()));
            }
        }
    }

    #[test]
    fn one_failing_scenario_does_not_abort_the_batch() {
        let netlist = generators::inverter_chain(2);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let mut scenarios = chain_scenarios(&library, 3);
        // An empty stimulus leaves the primary input undriven.
        scenarios.insert(
            1,
            Scenario::new(
                "broken",
                Stimulus::new(library.default_input_slew()),
                SimulationConfig::ddm(),
            ),
        );
        let report = record(BatchRunner::with_threads(2), &circuit, &scenarios);
        assert_eq!(report.len(), 4);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.succeeded(), 3);
        assert!(matches!(
            report.outcomes()[1].stats,
            Err(SimulationError::UndrivenPrimaryInput { .. })
        ));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let netlist = generators::inverter_chain(1);
        let library = technology::cmos06();
        let circuit = CompiledCircuit::compile(&netlist, &library).unwrap();
        let report = record(BatchRunner::new(), &circuit, &[]);
        assert!(report.is_empty());
        assert_eq!(report.totals(), &SimulationStats::default());
    }

    #[test]
    fn thread_count_clamps() {
        assert_eq!(BatchRunner::with_threads(0).threads(), 1);
        assert!(BatchRunner::default().threads() >= 1);
    }
}
