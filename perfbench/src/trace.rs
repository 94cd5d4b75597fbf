//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions (nothing inside the program is instrumented).  Every span
//! carries a name, its start and end, the span that was open when it started
//! (its parent) and the id of the job it belongs to.  Spans stay in memory
//! until [`take`] hands them over at the end of the run.
//!
//! With tracing disabled, [`span`] and [`job`] only call their closure, so the
//! untraced run executes the same code minus the bookkeeping.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    name: &'static str,
    id: u32,
    /// The enclosing span's id, `0` for a root.
    parent: u32,
    /// The job the span belongs to, `0` outside any job.
    job: u64,
    start: Instant,
    end: Instant,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static SPIN: OnceLock<(String, Duration)> = OnceLock::new();

thread_local! {
    /// `(open span id, job id)` of the calling thread.
    static CURRENT: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}

/// Turns span recording on or off (the untraced and traced halves of a run).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Makes every span named `layer` busy-wait `duration` inside its wrapper —
/// the layer-attribution self-test's injected cost.
pub fn set_spin(layer: String, duration: Duration) {
    let _ = SPIN.set((layer, duration));
}

/// Busy-waits the injected cost if `layer` is the spun layer.
pub fn spin(layer: &str) {
    if let Some((name, duration)) = SPIN.get() {
        if name == layer {
            let until = Instant::now() + *duration;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
    }
}

/// The calling thread's `(open span id, job id)`, for handing a parent to
/// work that runs on another thread.
pub fn context() -> (u32, u64) {
    CURRENT.get()
}

/// Runs `f` inside a span named `name`, a child of the calling thread's open
/// span.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let (parent, job) = CURRENT.get();
    enter(name, parent, job, f)
}

/// Runs `f` as job `job`: a root span whose id every span under it shares.
pub fn job<T>(name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
    enter(name, 0, job, f)
}

fn enter<T>(name: &'static str, parent: u32, job: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        spin(name);
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let saved = CURRENT.replace((id, job));
    let start = Instant::now();
    spin(name);
    let out = f();
    let end = Instant::now();
    CURRENT.set(saved);
    push(Span {
        name,
        id,
        parent,
        job,
        start,
        end,
    });
    out
}

/// Records a span whose start and end were taken elsewhere (runs inside the
/// batch runner's worker threads, timed from the observer hooks).
pub fn record(name: &'static str, parent: u32, job: u64, start: Instant, end: Instant) {
    if enabled() {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        push(Span {
            name,
            id,
            parent,
            job,
            start,
            end,
        });
    }
}

fn push(span: Span) {
    SPANS.lock().expect("span buffer poisoned").push(span);
}

/// Hands over (and clears) every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Per-layer totals over a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    pub calls: u64,
    pub total: Duration,
    /// Duration minus the part of it the span's children cover.
    pub self_time: Duration,
}

impl Layer {
    pub fn mean_us(&self) -> f64 {
        per_call_us(self.total, self.calls)
    }

    pub fn self_us(&self) -> f64 {
        per_call_us(self.self_time, self.calls)
    }
}

fn per_call_us(total: Duration, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total.as_secs_f64() * 1e6 / calls as f64
    }
}

/// Aggregates spans per name.  A span's self time is its duration minus the
/// union of its children's intervals (clipped to the span), so children that
/// run in parallel on other threads are not subtracted twice.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut children: HashMap<u32, Vec<(Instant, Instant)>> = HashMap::new();
    for span in spans {
        if span.parent != 0 {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start, span.end));
        }
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for span in spans {
        let duration = span.end.saturating_duration_since(span.start);
        let covered = children
            .get_mut(&span.id)
            .map_or(Duration::ZERO, |intervals| {
                covered(span.start, span.end, intervals)
            });
        let layer = out.entry(span.name).or_default();
        layer.calls += 1;
        layer.total += duration;
        layer.self_time += duration.saturating_sub(covered);
    }
    out
}

fn covered(start: Instant, end: Instant, intervals: &mut [(Instant, Instant)]) -> Duration {
    intervals.sort_unstable();
    let mut total = Duration::ZERO;
    let mut reach = start;
    for &(from, to) in intervals.iter() {
        let from = from.max(reach);
        let to = to.min(end);
        if to > from {
            total += to - from;
            reach = to;
        }
    }
    total
}

/// Writes spans as JSON lines (times in nanoseconds since `epoch`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span], epoch: Instant) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(
            out,
            r#"{{"name":"{}","id":{},"parent":{},"job":{},"start_ns":{},"end_ns":{}}}"#,
            span.name,
            span.id,
            span.parent,
            span.job,
            span.start.saturating_duration_since(epoch).as_nanos(),
            span.end.saturating_duration_since(epoch).as_nanos(),
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let spans = vec![
            Span {
                name: "parent",
                id: 1,
                parent: 0,
                job: 1,
                start: at(0),
                end: at(100),
            },
            // Two overlapping children (parallel threads) cover 10..60.
            Span {
                name: "child",
                id: 2,
                parent: 1,
                job: 1,
                start: at(10),
                end: at(50),
            },
            Span {
                name: "child",
                id: 3,
                parent: 1,
                job: 1,
                start: at(20),
                end: at(60),
            },
        ];
        let layers = layers(&spans);
        assert_eq!(layers["parent"].self_time, Duration::from_micros(50));
        assert_eq!(layers["child"].calls, 2);
        assert_eq!(layers["child"].self_time, Duration::from_micros(80));
    }
}
