//! What a workload hands back: the timed window's raw samples, the
//! deterministic counts, and named metrics.

use std::collections::BTreeMap;
use std::time::Duration;

use halotis_sim::SimulationStats;

use crate::trace;

/// Raw measurements of one timed window.
#[derive(Debug, Default)]
pub struct Window {
    /// Host time the window measured.
    pub wall: Duration,
    /// Jobs completed and checked.
    pub jobs: u64,
    /// `events_processed` summed over the window's simulations.
    pub events: u64,
    /// In-process simulation runs (0 when the runs happen in the daemon).
    pub runs: u64,
    /// Per-job latency samples, microseconds.
    pub latencies_us: Vec<f64>,
    /// Edit + revert round-trip samples, microseconds.
    pub edit_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// `busy` answers retried by serve clients.
    pub busy_retries: u64,
}

impl Window {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(message);
        }
    }

    /// Folds a worker's window into this one (wall time is the caller's).
    pub fn merge(&mut self, other: Window) {
        self.jobs += other.jobs;
        self.events += other.events;
        self.runs += other.runs;
        self.latencies_us.extend(other.latencies_us);
        self.edit_us.extend(other.edit_us);
        self.attempted += other.attempted;
        self.busy_retries += other.busy_retries;
        self.failed += other.failed;
        for failure in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(failure);
            }
        }
    }

    /// Folds a later window of the same run into this one.
    pub fn append(&mut self, other: Window) {
        self.wall += other.wall;
        self.merge(other);
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall.as_secs_f64()
    }

    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64()
    }
}

/// A named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Work counts that repeat exactly for a seed: simulator statistics over a
/// fixed unit of work and the daemon's counter diff over a fixed pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub events_scheduled: u64,
    pub events_processed: u64,
    pub events_filtered: u64,
    pub output_transitions: u64,
    pub queue_high_water: u64,
    pub cache_hits: u64,
    pub cache_compiles: u64,
    pub cache_evictions: u64,
    pub jobs_executed: u64,
    pub busy_rejections: u64,
    pub busy_retries: u64,
}

impl Counts {
    pub fn add_stats(&mut self, stats: &SimulationStats) {
        self.events_scheduled += stats.events_scheduled as u64;
        self.events_processed += stats.events_processed as u64;
        self.events_filtered += stats.events_filtered as u64;
        self.output_transitions += stats.output_transitions as u64;
        self.queue_high_water = self.queue_high_water.max(stats.queue_high_water as u64);
    }

    /// The counts as `(metric name, value)`, in report order.
    pub fn entries(&self) -> Vec<(&'static str, f64)> {
        let filtered_ratio = if self.events_scheduled == 0 {
            0.0
        } else {
            self.events_filtered as f64 / self.events_scheduled as f64
        };
        vec![
            ("sim.events_scheduled", self.events_scheduled as f64),
            ("sim.events_processed", self.events_processed as f64),
            ("sim.events_filtered", self.events_filtered as f64),
            ("sim.filtered_ratio", filtered_ratio),
            ("sim.output_transitions", self.output_transitions as f64),
            ("sim.queue_high_water", self.queue_high_water as f64),
            ("serve.cache.hits", self.cache_hits as f64),
            ("serve.cache.compiles", self.cache_compiles as f64),
            ("serve.cache.evictions", self.cache_evictions as f64),
            ("serve.jobs_executed", self.jobs_executed as f64),
            ("serve.busy_rejections", self.busy_rejections as f64),
            ("serve.busy_retries", self.busy_retries as f64),
        ]
    }
}

/// Span totals per layer name; a layer with no spans reads as zero.
pub struct Layers(pub BTreeMap<&'static str, trace::Layer>);

impl Layers {
    pub fn get(&self, name: &str) -> trace::Layer {
        self.0.get(name).copied().unwrap_or_default()
    }
}
