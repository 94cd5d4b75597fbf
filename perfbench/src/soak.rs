//! `soak`: long suites on circuits compiled once — the event loop's
//! workload.  Parse, compile, stimulus expansion and the fresh-state
//! reference runs all happen in set-up; the timed loop is nothing but
//! `BatchRunner::run_observed` over every scenario, the output check, and
//! one in-process edit + revert per circuit batch.

use std::time::Instant;

use halotis_core::TimeDelta;
use halotis_corpus::StimulusSuite;
use halotis_netlist::{generators, iscas, Netlist};
use halotis_sim::{BatchRunner, CompiledCircuit, Scenario};

use crate::common::{
    bundle, edit_round_trip, library, models, nproc, run_digest, thread_cpu_time, Digest, Edit,
    Rng, RunProbe, MODEL_NAMES,
};
use crate::report::{Counts, Layers, Metric, Window};
use crate::{probe, trace};

/// Clock cycles per s27 stimulus.
const S27_CYCLES: usize = 2000;
/// Random vectors per c880 stimulus.
const C880_VECTORS: usize = 100;
/// Random vectors per random24x600 stimulus.
const RANDOM_VECTORS: usize = 100;
/// Stimuli per circuit; each runs under the three model columns.
const STIMULI: usize = 8;

struct SoakCircuit {
    circuit: CompiledCircuit<'static>,
    suites: Vec<StimulusSuite>,
    scenarios: Vec<Scenario>,
    /// What a one-thread run on a fresh state reports for each scenario.
    reference: Vec<Digest>,
}

pub struct Soak {
    circuits: Vec<SoakCircuit>,
    runner: BatchRunner,
    rng: Rng,
    jobs: u64,
}

pub fn setup(seed: u64) -> Result<Soak, String> {
    let library = library();
    let mut rng = Rng::derive(seed, 1);
    let ns = TimeDelta::from_ns;
    let clocked = |rng: &mut Rng| StimulusSuite::Clocked {
        cycles: S27_CYCLES,
        period: ns(4.0),
        high: ns(1.0),
        skew: TimeDelta::from_ps(250.0),
        seed: rng.next(),
    };
    let random = |rng: &mut Rng, vectors, period| StimulusSuite::RandomVectors {
        vectors,
        period: ns(period),
        seed: rng.next(),
    };
    let s27: Vec<StimulusSuite> = (0..STIMULI).map(|_| clocked(&mut rng)).collect();
    let c880: Vec<StimulusSuite> = (0..STIMULI)
        .map(|_| random(&mut rng, C880_VECTORS, 8.0))
        .collect();
    let random24: Vec<StimulusSuite> = (0..STIMULI)
        .map(|_| random(&mut rng, RANDOM_VECTORS, 6.0))
        .collect();
    // The circuits are fixed (the corpus's random24x600 generator seed
    // included); the seed varies the stimuli, so every seed soaks the same
    // structures and the figures compare across seeds.
    let specs: Vec<(Netlist, Vec<StimulusSuite>)> = vec![
        (iscas::s27(), s27),
        (iscas::c880(), c880),
        (generators::random_logic(24, 600, 0xDECAF), random24),
    ];

    let mut circuits = Vec::with_capacity(specs.len());
    for (netlist, suites) in specs {
        let circuit =
            CompiledCircuit::compile_owned(netlist, library).map_err(|err| err.to_string())?;
        let mut scenarios = Vec::new();
        for suite in &suites {
            for (label, stimulus) in suite.stimuli(circuit.netlist(), library) {
                for (model, config) in MODEL_NAMES.into_iter().zip(models()) {
                    scenarios.push(Scenario::new(
                        format!("{label}/{model}"),
                        stimulus.clone(),
                        config,
                    ));
                }
            }
        }
        let reference = scenarios
            .iter()
            .map(|scenario| {
                run_digest(
                    &circuit,
                    &mut circuit.new_state(),
                    &scenario.stimulus,
                    &scenario.config,
                )
                .map_err(|err| format!("{}: {err}", scenario.label))
            })
            .collect::<Result<Vec<_>, _>>()?;
        circuits.push(SoakCircuit {
            circuit,
            suites,
            scenarios,
            reference,
        });
    }
    Ok(Soak {
        circuits,
        runner: BatchRunner::with_threads(nproc()),
        rng: Rng::derive(seed, 2),
        jobs: 0,
    })
}

impl Soak {
    /// Runs circuit batches round-robin until `seconds` have passed.
    pub fn run(&mut self, seconds: f64) -> Window {
        let mut window = Window::default();
        let started = Instant::now();
        'rounds: loop {
            for index in 0..self.circuits.len() {
                if started.elapsed().as_secs_f64() >= seconds {
                    break 'rounds;
                }
                self.jobs += 1;
                let job = self.jobs;
                trace::job("bench.job", job, || self.batch(index, &mut window));
            }
        }
        window.wall = started.elapsed();
        window
    }

    fn batch(&mut self, index: usize, window: &mut Window) {
        let soak = &mut self.circuits[index];
        let runner = self.runner;
        let report = trace::span("sim.batch.run_observed", || {
            let parent = trace::context();
            runner.run_observed(&soak.circuit, &soak.scenarios, |_, _| {
                (bundle(), RunProbe::new(parent))
            })
        });
        trace::span("bench.check", || {
            for (outcome, reference) in report.outcomes().iter().zip(&soak.reference) {
                window.attempted += 1;
                let (observer, probe) = &outcome.observer;
                match &outcome.stats {
                    Ok(stats) if Digest::of(*stats, observer) == *reference => {
                        window.jobs += 1;
                        window.runs += 1;
                        window.events += stats.events_processed as u64;
                        if let Some(elapsed) = probe.elapsed {
                            window.latencies_us.push(elapsed.as_secs_f64() * 1e6);
                        }
                    }
                    Ok(_) => {
                        window.fail(format!("{}: output differs from reference", outcome.label))
                    }
                    Err(err) => window.fail(format!("{}: {err}", outcome.label)),
                }
            }
        });

        let edit = Edit::pick(soak.circuit.netlist(), &mut self.rng);
        let started = thread_cpu_time();
        let result = trace::span("sim.compiled.apply_edits", || {
            edit_round_trip(&mut soak.circuit, &edit)
        });
        window
            .edit_us
            .push((thread_cpu_time() - started).as_secs_f64() * 1e6);
        window.attempted += 1;
        if let Err(err) = result {
            window.fail(format!("edit round trip: {err}"));
        }
    }

    /// Deterministic counts: one round over every scenario, as the
    /// reference runs report it.
    pub fn counts(&self) -> Counts {
        let mut counts = Counts::default();
        for soak in &self.circuits {
            for digest in &soak.reference {
                counts.add_stats(&digest.stats);
            }
        }
        counts
    }

    /// Single-thread probes of the layers the timed loop calls only in
    /// set-up or inside the batch runner.  Probe failures count against the
    /// traced window.
    pub fn probes(&self, layers: &Layers, window: &mut Window) -> Vec<Metric> {
        let library = library();
        let mut statics = probe::Statics::default();
        let mut runs = probe::Runs::default();
        for soak in &self.circuits {
            if let Err(err) = statics.netlist(soak.circuit.netlist(), library) {
                window.fail(err);
            }
            for suite in &soak.suites {
                statics.expand(suite, soak.circuit.netlist(), library);
            }
            let mut state = soak.circuit.new_state();
            for scenario in &soak.scenarios {
                let measured = runs.measure(
                    &soak.circuit,
                    &mut state,
                    &scenario.stimulus,
                    &scenario.config,
                );
                if let Err(err) = measured {
                    window.fail(format!("{}: {err}", scenario.label));
                }
            }
        }
        // Each round runs every circuit's batch once, so the mean batch span
        // times the circuit count is one round's wall time.
        let round_wall_us =
            layers.get("sim.batch.run_observed").mean_us() * self.circuits.len() as f64;
        let efficiency = runs.bundle_total_us() / (self.runner.threads() as f64 * round_wall_us);
        let mut metrics = statics.metrics();
        metrics.extend(runs.metrics());
        metrics.push(Metric::new(
            "sim.batch.parallel_efficiency",
            efficiency,
            "ratio",
        ));
        metrics
    }
}
