//! `fresh_netlists`: the cold path a user pays on a new design.  Every job
//! takes a netlist text it has never seen (half `.net`, half Verilog) through
//! parse → compile → stimulus expansion → the three model columns, checks
//! the parse and the statistics against the generator, then edits and
//! reverts the fresh circuit once.
//!
//! Inputs are generated in chunks between timed stretches, so every text is
//! used once without holding a whole run's worth of netlists in memory; only
//! the stretches running jobs count towards the measured time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use halotis_core::TimeDelta;
use halotis_corpus::StimulusSuite;
use halotis_netlist::{generators, parser, verilog, writer, Netlist};
use halotis_sim::{CompiledCircuit, SimulationConfig, SimulationStats};

use crate::common::{
    bundle, edit_round_trip, library, models, nproc, thread_cpu_time, Edit, Rng, RUN_LAYER,
};
use crate::probe;
use crate::report::{Counts, Layers, Metric, Window};
use crate::trace;

/// Jobs generated per chunk.
const CHUNK: usize = 128;
/// Random vectors in each job's (short) suite.
const VECTORS: usize = 3;
/// Inputs the single-thread probes measure.
const PROBE_SAMPLE: usize = 32;

pub struct Input {
    index: u64,
    text: String,
    verilog: bool,
    /// The generator's netlist, which the parse must reproduce.
    netlist: Netlist,
    suite: StimulusSuite,
    /// Statistics of each (stimulus, model) run on the generator's netlist.
    reference: Vec<SimulationStats>,
    edit: Edit,
}

fn make_input(seed: u64, index: u64, configs: &[SimulationConfig]) -> Input {
    let library = library();
    let mut rng = Rng::derive(seed, 1_000 + index);
    let inputs = rng.range(8, 32);
    let gates = rng.range(50, 600);
    let netlist = generators::random_logic(inputs, gates, rng.next());
    let verilog = index % 2 == 1;
    let text = if verilog {
        verilog::to_verilog(&netlist)
    } else {
        writer::to_text(&netlist)
    };
    let suite = StimulusSuite::RandomVectors {
        vectors: VECTORS,
        period: TimeDelta::from_ns(6.0),
        seed: rng.next(),
    };
    let edit = Edit::pick(&netlist, &mut rng);
    let circuit = CompiledCircuit::compile(&netlist, library).expect("generated netlists compile");
    let mut state = circuit.new_state();
    let mut reference = Vec::new();
    for (_, stimulus) in suite.stimuli(&netlist, library) {
        for config in configs {
            reference.push(
                circuit
                    .run_stats(&mut state, &stimulus, config)
                    .expect("generated netlists simulate"),
            );
        }
    }
    Input {
        index,
        text,
        verilog,
        netlist,
        suite,
        reference,
        edit,
    }
}

/// Runs `f` over `0..count` on `threads` threads pulling from a shared
/// cursor (a closed loop: a thread takes its next item when it finishes
/// one), returning results in index order.
fn parallel<T: Send>(count: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= count {
                            break done;
                        }
                        done.push((index, f(index)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("worker thread panicked"))
            .collect()
    });
    results.sort_by_key(|(index, _)| *index);
    results.into_iter().map(|(_, item)| item).collect()
}

pub struct Fresh {
    seed: u64,
    threads: usize,
    configs: Vec<SimulationConfig>,
    next: u64,
    /// The chunk the next timed stretch runs.
    pending: Vec<Input>,
    counts: Counts,
}

/// Set-up generates the first chunk.
pub fn setup(seed: u64) -> Result<Fresh, String> {
    let mut fresh = Fresh {
        seed,
        threads: nproc(),
        configs: models().into(),
        next: 0,
        pending: Vec::new(),
        counts: Counts::default(),
    };
    fresh.pending = fresh.generate();
    for input in &fresh.pending {
        for stats in &input.reference {
            fresh.counts.add_stats(stats);
        }
    }
    Ok(fresh)
}

struct JobOutcome {
    latency_us: f64,
    edit_us: f64,
    events: u64,
    runs: u64,
    failures: Vec<String>,
}

fn run_job(input: &Input, configs: &[SimulationConfig]) -> JobOutcome {
    trace::job("bench.job", input.index, || {
        let library = library();
        let mut outcome = JobOutcome {
            latency_us: 0.0,
            edit_us: 0.0,
            events: 0,
            runs: 0,
            failures: Vec::new(),
        };
        // Latencies are the job thread's CPU time: the job never blocks, so
        // on an idle host this is its wall time, without the preemption and
        // steal that two busy threads on a shared host pick up.
        let started = thread_cpu_time();
        let parsed = if input.verilog {
            trace::span("netlist.verilog.parse", || {
                verilog::parse_verilog(&input.text).map_err(|err| err.to_string())
            })
        } else {
            trace::span("netlist.parser.parse", || {
                parser::parse(&input.text).map_err(|err| err.to_string())
            })
        };
        let parsed = match parsed {
            Ok(parsed) => parsed,
            Err(err) => {
                outcome
                    .failures
                    .push(format!("job {}: parse: {err}", input.index));
                return outcome;
            }
        };
        if !trace::span("bench.check", || parsed == input.netlist) {
            outcome
                .failures
                .push(format!("job {}: parse changed the netlist", input.index));
        }
        let compiled = trace::span("sim.compiled.compile", || {
            CompiledCircuit::compile_owned(parsed, library).map(|circuit| {
                let state = circuit.new_state();
                (circuit, state)
            })
        });
        let (mut circuit, mut state) = match compiled {
            Ok(compiled) => compiled,
            Err(err) => {
                outcome
                    .failures
                    .push(format!("job {}: compile: {err}", input.index));
                return outcome;
            }
        };
        let stimuli = trace::span("corpus.stimuli.expand", || {
            input.suite.stimuli(circuit.netlist(), library)
        });
        let mut reference = input.reference.iter();
        for (_, stimulus) in &stimuli {
            for config in configs {
                let result = trace::span(RUN_LAYER, || {
                    circuit.run_observed(&mut state, stimulus, config, &mut bundle())
                });
                outcome.runs += 1;
                let expected = reference.next();
                match result {
                    Ok(stats) if Some(&stats) == expected => {
                        outcome.events += stats.events_processed as u64;
                    }
                    Ok(_) => outcome.failures.push(format!(
                        "job {}: statistics differ from the generator netlist's",
                        input.index
                    )),
                    Err(err) => outcome.failures.push(format!("job {}: {err}", input.index)),
                }
            }
        }
        outcome.latency_us = (thread_cpu_time() - started).as_secs_f64() * 1e6;

        let started = thread_cpu_time();
        let edited = trace::span("sim.compiled.apply_edits", || {
            edit_round_trip(&mut circuit, &input.edit)
        });
        outcome.edit_us = (thread_cpu_time() - started).as_secs_f64() * 1e6;
        if let Err(err) = edited {
            outcome
                .failures
                .push(format!("job {}: edit round trip: {err}", input.index));
        }
        outcome
    })
}

impl Fresh {
    fn generate(&mut self) -> Vec<Input> {
        let first = self.next;
        self.next += CHUNK as u64;
        let (seed, configs) = (self.seed, &self.configs);
        parallel(CHUNK, self.threads, |offset| {
            make_input(seed, first + offset as u64, configs)
        })
    }

    fn run_chunk(&self, inputs: &[Input], threads: usize) -> Vec<JobOutcome> {
        parallel(inputs.len(), threads, |index| {
            run_job(&inputs[index], &self.configs)
        })
    }

    /// Runs chunks until `seconds` of job time have been measured.
    pub fn run(&mut self, seconds: f64) -> Window {
        let mut window = Window::default();
        let mut measured = Duration::ZERO;
        while measured.as_secs_f64() < seconds {
            let chunk = match std::mem::take(&mut self.pending) {
                pending if !pending.is_empty() => pending,
                _ => self.generate(),
            };
            let started = Instant::now();
            let outcomes = self.run_chunk(&chunk, self.threads);
            measured += started.elapsed();
            for outcome in outcomes {
                window.attempted += 1;
                window.events += outcome.events;
                window.runs += outcome.runs;
                match outcome.failures.into_iter().next() {
                    Some(failure) => window.fail(failure),
                    None => {
                        window.jobs += 1;
                        window.latencies_us.push(outcome.latency_us);
                        window.edit_us.push(outcome.edit_us);
                    }
                }
            }
        }
        window.wall = measured;
        window
    }

    /// Deterministic counts: the reference runs of the first chunk.
    pub fn counts(&self) -> Counts {
        self.counts.clone()
    }

    /// Per-layer figures from the traced spans, plus single-thread probes on
    /// a fresh sample of inputs.
    pub fn probes(&mut self, layers: &Layers, window: &mut Window) -> Vec<Metric> {
        let library = library();
        let chunk = self.generate();
        let sample = &chunk[..PROBE_SAMPLE];
        let mut runs = probe::Runs::default();
        let mut bytes = 0usize;
        for input in sample {
            bytes += input.text.len();
            let circuit = CompiledCircuit::compile(&input.netlist, library)
                .expect("generated netlists compile");
            let mut state = circuit.new_state();
            for (_, stimulus) in input.suite.stimuli(&input.netlist, library) {
                for config in &self.configs {
                    if let Err(err) = runs.measure(&circuit, &mut state, &stimulus, config) {
                        window.fail(format!("probe job {}: {err}", input.index));
                    }
                }
            }
        }
        // Parallel efficiency: a whole chunk's single-thread wall time
        // against its wall time on every thread (fastest of two each).
        let chunk_wall_us = |threads: usize| {
            (0..2)
                .map(|_| {
                    let started = Instant::now();
                    self.run_chunk(&chunk, threads);
                    started.elapsed().as_secs_f64() * 1e6
                })
                .fold(f64::INFINITY, f64::min)
        };
        let single = chunk_wall_us(1);
        let wall_us = chunk_wall_us(self.threads);

        let mut metrics = vec![
            Metric::new(
                "netlist.parser.parse_us",
                layers.get("netlist.parser.parse").mean_us(),
                "us",
            ),
            Metric::new(
                "netlist.verilog.parse_us",
                layers.get("netlist.verilog.parse").mean_us(),
                "us",
            ),
            Metric::new(
                "netlist.parse_bytes",
                bytes as f64 / sample.len() as f64,
                "bytes",
            ),
            Metric::new(
                "sim.compiled.compile_us",
                layers.get("sim.compiled.compile").mean_us(),
                "us",
            ),
            Metric::new(
                "corpus.stimuli.expand_us",
                layers.get("corpus.stimuli.expand").mean_us(),
                "us",
            ),
            Metric::new(
                "sim.batch.parallel_efficiency",
                single / (self.threads as f64 * wall_us),
                "ratio",
            ),
        ];
        metrics.extend(runs.metrics());
        metrics
    }
}
