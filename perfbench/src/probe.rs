//! Single-thread probes run after the traced window: calls a workload makes
//! only in set-up (parse, compile, expansion on `soak` and `serve_eco`) and
//! the differential runs behind `run_setup_us` and `observer.overhead_us`.
//! Each probe takes the fastest of a few repetitions.

use std::time::Instant;

use halotis_core::Time;
use halotis_corpus::StimulusSuite;
use halotis_netlist::{parser, verilog, writer, Library, Netlist};
use halotis_sim::{CompiledCircuit, SimState, SimulationConfig};
use halotis_waveform::Stimulus;

use crate::common::bundle;
use crate::report::Metric;

const REPS: usize = 3;

/// Fastest of [`REPS`] calls, in microseconds.
fn fastest_us<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..REPS)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `config` cut off at time 0: reset, initial evaluation and stimulus
/// scheduling, no events processed.
pub fn setup_only(config: &SimulationConfig) -> SimulationConfig {
    config.clone().with_time_limit(Time::ZERO)
}

/// Parse, compile and expansion costs of circuits the timed loop never
/// parses or compiles.
#[derive(Default)]
pub struct Statics {
    parse_net_us: Vec<f64>,
    parse_verilog_us: Vec<f64>,
    parse_bytes: Vec<f64>,
    compile_us: Vec<f64>,
    expand_us: Vec<f64>,
}

impl Statics {
    /// Times both parsers on the netlist's texts and its compilation.
    pub fn netlist(&mut self, netlist: &Netlist, library: &Library) -> Result<(), String> {
        let net = writer::to_text(netlist);
        let verilog_text = verilog::to_verilog(netlist);
        self.parse_bytes.push(net.len() as f64);
        self.parse_bytes.push(verilog_text.len() as f64);
        parser::parse(&net).map_err(|err| format!("{}: .net parse: {err}", netlist.name()))?;
        verilog::parse_verilog(&verilog_text)
            .map_err(|err| format!("{}: Verilog parse: {err}", netlist.name()))?;
        self.parse_net_us.push(fastest_us(|| parser::parse(&net)));
        self.parse_verilog_us
            .push(fastest_us(|| verilog::parse_verilog(&verilog_text)));
        self.compile_us
            .push(fastest_us(|| CompiledCircuit::compile(netlist, library)));
        Ok(())
    }

    pub fn expand(&mut self, suite: &StimulusSuite, netlist: &Netlist, library: &Library) {
        self.expand_us
            .push(fastest_us(|| suite.stimuli(netlist, library)));
    }

    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("netlist.parser.parse_us", mean(&self.parse_net_us), "us"),
            Metric::new(
                "netlist.verilog.parse_us",
                mean(&self.parse_verilog_us),
                "us",
            ),
            Metric::new("netlist.parse_bytes", mean(&self.parse_bytes), "bytes"),
            Metric::new("sim.compiled.compile_us", mean(&self.compile_us), "us"),
            Metric::new("corpus.stimuli.expand_us", mean(&self.expand_us), "us"),
        ]
    }
}

/// Bundle, null-observer and setup-only runs of the same scenarios.
#[derive(Default)]
pub struct Runs {
    bundle_us: Vec<f64>,
    null_us: Vec<f64>,
    setup_us: Vec<f64>,
    events: Vec<f64>,
}

impl Runs {
    pub fn measure(
        &mut self,
        circuit: &CompiledCircuit<'_>,
        state: &mut SimState,
        stimulus: &Stimulus,
        config: &SimulationConfig,
    ) -> Result<(), String> {
        let stats = circuit
            .run_stats(state, stimulus, config)
            .map_err(|err| err.to_string())?;
        let cut = setup_only(config);
        self.bundle_us.push(fastest_us(|| {
            circuit.run_observed(state, stimulus, config, &mut bundle())
        }));
        self.null_us
            .push(fastest_us(|| circuit.run_stats(state, stimulus, config)));
        self.setup_us
            .push(fastest_us(|| circuit.run_stats(state, stimulus, &cut)));
        self.events.push(stats.events_processed as f64);
        Ok(())
    }

    /// Σ single-thread bundle-run time over every measured scenario.
    pub fn bundle_total_us(&self) -> f64 {
        self.bundle_us.iter().sum()
    }

    pub fn bundle_mean_us(&self) -> f64 {
        mean(&self.bundle_us)
    }

    pub fn events_mean(&self) -> f64 {
        mean(&self.events)
    }

    pub fn setup_mean_us(&self) -> f64 {
        mean(&self.setup_us)
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let overhead: Vec<f64> = self
            .bundle_us
            .iter()
            .zip(&self.null_us)
            .map(|(bundle, null)| bundle - null)
            .collect();
        vec![
            Metric::new("sim.compiled.run_setup_us", self.setup_mean_us(), "us"),
            Metric::new("sim.observer.overhead_us", mean(&overhead), "us"),
        ]
    }
}
