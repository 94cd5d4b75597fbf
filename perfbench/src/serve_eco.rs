//! `serve_eco`: the daemon's interactive what-if path.  An in-process
//! `halotis_serve` daemon (2 workers, a cache holding the working set)
//! answers one closed-loop client over a private Unix socket, one request
//! at a time.  The client mostly sends `simulate` reads on mid-size corpus
//! circuits; between them it runs edit cycles: simulate → edit (swap_kind +
//! rewire) → simulate → revert → simulate.  Reads take a cache entry's read
//! lock and edits its write lock, so a change that speeds reads up at the
//! cost of writes shows in `latency_*` against `edit_latency_p50_us`.
//!
//! One request in flight keeps the measurement on the daemon: with two
//! clients, or two reads in flight, the requests queue behind each other
//! on a two-vCPU host, and their tail latency followed any competing
//! thread (p99 up 3–4× beside one busy loop, against +8% for one client).
//! With one request in flight only one thread runs at a time, so the
//! workload pins the process (client, daemon and its workers) to one CPU
//! (see [`pin_to_last_cpu`]): every hand-off is then a local context switch
//! instead of a wake-up of another virtual CPU, whose latency is the
//! host's to decide.
//!
//! Every response is checked against results computed in-process during
//! set-up: every read of each pristine circuit, and each edit cycle's read
//! with its edit applied.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use halotis_core::TimeDelta;
use halotis_corpus::{standard_corpus, StimulusSuite};
use halotis_netlist::{writer, Netlist};
use halotis_serve::json::{self, Value};
use halotis_serve::{client, frame, ServerConfig, ServerHandle};
use halotis_sim::CompiledCircuit;

use crate::common::{
    edit_round_trip, library, models, pin_to_last_cpu, run_digest, Digest, Edit, Rng, MODEL_NAMES,
};
use crate::probe;
use crate::report::{Counts, Layers, Metric, Window};
use crate::trace;

/// The working set: mid-size corpus circuits (roughly 60–400 gates).
const WORKING_SET: [&str; 8] = [
    "mult4x4",
    "rca12",
    "cska12b4",
    "ks16",
    "wallace6x6",
    "random16x300",
    "c432",
    "parity16",
];
/// Distinct edits the client cycles through on each circuit.
const EDITS_PER_KEY: usize = 6;
/// Seeded simulate suites per circuit.
const SUITES_PER_KEY: usize = 32;
/// Random vectors in each simulate suite.
const VECTORS: usize = 1;
/// `busy` answers retried before a request counts as failed.
const BUSY_RETRIES: u32 = 100;
const MAX_FRAME: usize = 64 << 20;
/// Time the daemon's accept loop gets for its first poll (see [`setup`]).
const ACCEPT_SETTLE: Duration = Duration::from_millis(2);

/// One response row: every deterministic field of a simulate scenario
/// (energy as its bit pattern).
type Row = [u64; 10];

fn row(digest: &Digest) -> Row {
    let stats = &digest.stats;
    [
        stats.events_scheduled as u64,
        stats.events_filtered as u64,
        stats.events_processed as u64,
        stats.output_transitions as u64,
        stats.degraded_transitions as u64,
        stats.collapsed_transitions as u64,
        stats.queue_high_water as u64,
        digest.transitions as u64,
        digest.glitches as u64,
        digest.energy_bits,
    ]
}

const ROW_FIELDS: [&str; 9] = [
    "events_scheduled",
    "events_filtered",
    "events_processed",
    "output_transitions",
    "degraded_transitions",
    "collapsed_transitions",
    "queue_high_water",
    "transitions",
    "glitch_pulses",
];

fn response_rows(ok: &Value) -> Option<Vec<Row>> {
    ok.get("scenarios")?
        .as_array()?
        .iter()
        .map(|scenario| {
            let mut out = [0u64; 10];
            for (slot, field) in out.iter_mut().zip(ROW_FIELDS) {
                *slot = scenario.get(field)?.as_u64()?;
            }
            out[9] = scenario.get("energy_joules")?.as_f64()?.to_bits();
            Some(out)
        })
        .collect()
}

struct Key {
    key: String,
    netlist: Netlist,
    suites: Vec<StimulusSuite>,
    edits: Vec<Edit>,
    commands: Vec<String>,
    /// `pristine[model][suite]`: what a read of the unedited circuit answers.
    pristine: Vec<Vec<Vec<Row>>>,
    /// `edited[e]`: what edit `e`'s cycle read answers with the edit applied.
    edited: Vec<Vec<Row>>,
}

/// What a simulate asks for: circuit, model column and suite.
#[derive(Clone, Copy, Debug)]
struct Read {
    key: usize,
    model: usize,
    suite: usize,
}

/// The read an edit cycle on circuit `key` makes around edit `edit`.
fn cycle_read(key: usize, edit: usize) -> Read {
    Read {
        key,
        model: (key + edit) % 3,
        suite: edit % SUITES_PER_KEY,
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Read(Read),
    Cycle { read: Read, edit: usize },
}

pub struct ServeEco {
    handle: Option<ServerHandle>,
    /// The client's connection, kept open from set-up to shutdown.
    conn: Conn,
    keys: Vec<Key>,
    schedule: Vec<Op>,
    /// Mean response frame size over the last count pass.
    response_bytes: f64,
}

/// A blocking protocol connection whose round trip and response parse are
/// separate spans.
struct Conn {
    stream: UnixStream,
    next_id: u64,
}

/// One answered request.
struct Answer {
    doc: Value,
    bytes: usize,
}

impl Conn {
    fn connect(path: &Path) -> Result<Conn, String> {
        let stream = UnixStream::connect(path).map_err(|err| format!("connect: {err}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|err| err.to_string())?;
        Ok(Conn { stream, next_id: 1 })
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Sends `body`, retrying `busy` answers with a short backoff.
    fn call(
        &mut self,
        layer: &'static str,
        body: &str,
        retries: &mut u64,
    ) -> Result<Answer, String> {
        let mut attempts = 0;
        loop {
            let bytes = trace::span(layer, || {
                frame::write_frame(&mut self.stream, body.as_bytes())
                    .map_err(|err| err.to_string())?;
                frame::read_frame(&mut self.stream, MAX_FRAME)
                    .map_err(|err| err.to_string())?
                    .ok_or_else(|| "daemon closed the connection".to_string())
            })?;
            let doc = trace::span("serve.json.parse", || {
                std::str::from_utf8(&bytes)
                    .map_err(|err| err.to_string())
                    .and_then(|text| json::parse(text).map_err(|err| err.to_string()))
            })?;
            let code = doc
                .get("error")
                .and_then(|error| error.get("code"))
                .and_then(Value::as_str);
            match code {
                Some("busy") if attempts < BUSY_RETRIES => {
                    attempts += 1;
                    *retries += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
                Some(code) => {
                    let message = doc
                        .get("error")
                        .and_then(|error| error.get("message"))
                        .and_then(Value::as_str)
                        .unwrap_or("");
                    return Err(format!("daemon answered {code}: {message}"));
                }
                None => {
                    return Ok(Answer {
                        doc,
                        bytes: bytes.len(),
                    })
                }
            }
        }
    }
}

fn ok_of(answer: &Answer) -> Result<&Value, String> {
    answer
        .doc
        .get("ok")
        .ok_or_else(|| "response has no ok payload".to_string())
}

pub fn setup(seed: u64) -> Result<ServeEco, String> {
    // The daemon's threads inherit the pin; see the module docs.
    if !pin_to_last_cpu() {
        eprintln!("perfbench: could not pin serve_eco to one CPU; running unpinned");
    }
    let library = library();
    let mut rng = Rng::derive(seed, 3);
    std::fs::create_dir_all(crate::RUN_DIR).map_err(|err| err.to_string())?;
    let socket = PathBuf::from(format!(
        "{}/serve-{}.sock",
        crate::RUN_DIR,
        std::process::id()
    ));
    let handle = halotis_serve::start(ServerConfig {
        uds: Some(socket.clone()),
        workers: 2,
        cache_capacity: WORKING_SET.len(),
        ..ServerConfig::default()
    })
    .map_err(|err| format!("daemon start: {err}"))?;
    // The daemon's accept loop polls every 25 ms.  Letting it make its first
    // poll before connecting has every set-up wait for the same second poll,
    // where racing it made the set-up time fall into two groups 25 ms apart.
    std::thread::sleep(ACCEPT_SETTLE);
    let conn = match Conn::connect(&socket) {
        Ok(conn) => conn,
        Err(err) => {
            handle.initiate_shutdown();
            handle.wait();
            return Err(err);
        }
    };
    let mut serve = ServeEco {
        handle: Some(handle),
        conn,
        keys: Vec::new(),
        schedule: Vec::new(),
        response_bytes: 0.0,
    };

    let corpus = standard_corpus();
    let model_configs = models();
    for name in WORKING_SET {
        let entry = corpus
            .iter()
            .find(|entry| entry.name == name)
            .ok_or_else(|| format!("{name} is not in the standard corpus"))?;
        let netlist = entry.netlist.clone();
        let id = serve.conn.id();
        let loaded = serve.conn.call(
            "serve.client.load",
            &client::load_request(id, &writer::to_text(&netlist)),
            &mut 0,
        )?;
        let key = ok_of(&loaded)?
            .get("key")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{name}: load answered no key"))?
            .to_string();
        let suites: Vec<StimulusSuite> = (0..SUITES_PER_KEY)
            .map(|_| StimulusSuite::RandomVectors {
                vectors: VECTORS,
                period: TimeDelta::from_ns(5.0),
                // JSON numbers carry integers exactly only up to 2^53.
                seed: rng.next() >> 32,
            })
            .collect();
        let edits: Vec<Edit> = (0..EDITS_PER_KEY)
            .map(|_| Edit::pick(&netlist, &mut rng))
            .collect();
        // Runs `suite` under model column `model` on `circuit`.
        let rows = |circuit: &CompiledCircuit<'_>,
                    state: &mut halotis_sim::SimState,
                    model: usize,
                    suite: &StimulusSuite|
         -> Result<Vec<Row>, String> {
            suite
                .stimuli(circuit.netlist(), library)
                .iter()
                .map(|(_, stimulus)| {
                    run_digest(circuit, state, stimulus, &model_configs[model])
                        .map(|digest| row(&digest))
                        .map_err(|err| format!("{name}: {err}"))
                })
                .collect()
        };
        let circuit = CompiledCircuit::compile(&netlist, library).map_err(|err| err.to_string())?;
        let mut state = circuit.new_state();
        let mut pristine = Vec::new();
        for model in 0..model_configs.len() {
            let per_suite = suites
                .iter()
                .map(|suite| rows(&circuit, &mut state, model, suite))
                .collect::<Result<Vec<_>, _>>()?;
            pristine.push(per_suite);
        }
        let mut edited = Vec::new();
        for (index, edit) in edits.iter().enumerate() {
            let mut circuit =
                CompiledCircuit::compile(&netlist, library).map_err(|err| err.to_string())?;
            edit.apply(&mut circuit)
                .map_err(|err| format!("{name}: edit: {err}"))?;
            let read = cycle_read(serve.keys.len(), index);
            let mut state = circuit.new_state();
            edited.push(rows(&circuit, &mut state, read.model, &suites[read.suite])?);
        }
        let commands = edits
            .iter()
            .map(|edit| edit.commands_json(&netlist))
            .collect();
        serve.keys.push(Key {
            key,
            netlist,
            suites,
            edits,
            commands,
            pristine,
            edited,
        });
    }

    // The schedule holds every (circuit, model, suite) read once and one
    // edit cycle per edit of every circuit, in seeded order: the same mix
    // for every seed.
    for key in 0..WORKING_SET.len() {
        for model in 0..3 {
            for suite in 0..SUITES_PER_KEY {
                serve.schedule.push(Op::Read(Read { key, model, suite }));
            }
        }
        for edit in 0..EDITS_PER_KEY {
            serve.schedule.push(Op::Cycle {
                read: cycle_read(key, edit),
                edit,
            });
        }
    }
    for index in (1..serve.schedule.len()).rev() {
        serve.schedule.swap(index, rng.below(index + 1));
    }
    Ok(serve)
}

/// What the client saw.
#[derive(Default)]
struct ClientLog {
    window: Window,
    counts: Counts,
    response_bytes: u64,
    responses: u64,
}

impl ClientLog {
    /// Adds a checked simulate answer's events to the window and counts.
    fn book(&mut self, rows: &[Row]) {
        for row in rows {
            self.window.events += row[2];
            self.counts.events_scheduled += row[0];
            self.counts.events_filtered += row[1];
            self.counts.events_processed += row[2];
            self.counts.output_transitions += row[3];
            self.counts.queue_high_water = self.counts.queue_high_water.max(row[6]);
        }
    }
}

/// Runs the client: `schedule` in a loop until `deadline`, or exactly once
/// when `deadline` is `None`.
fn run_client(
    conn: &mut Conn,
    keys: &[Key],
    schedule: &[Op],
    deadline: Option<Instant>,
) -> ClientLog {
    let mut log = ClientLog::default();
    for (position, op) in schedule.iter().cycle().enumerate() {
        match deadline {
            Some(deadline) if Instant::now() >= deadline => break,
            None if position == schedule.len() => break,
            _ => {}
        }
        match *op {
            Op::Read(read) => {
                let expected = &keys[read.key].pristine[read.model][read.suite];
                simulate(conn, keys, read, expected, &mut log);
            }
            Op::Cycle { read, edit } => cycle(conn, keys, read, edit, &mut log),
        }
    }
    log
}

/// One `simulate` job; returns the rows when they matched `expected`.
fn simulate(
    conn: &mut Conn,
    keys: &[Key],
    read: Read,
    expected: &[Row],
    log: &mut ClientLog,
) -> Option<Vec<Row>> {
    let Read { key, model, suite } = read;
    let spec = &keys[key];
    let id = conn.id();
    let body = client::simulate_request(id, &spec.key, &spec.suites[suite], MODEL_NAMES[model]);
    let outcome = request(conn, "serve.client.simulate", &body, log, |answer| {
        let rows = response_rows(ok_of(answer)?).ok_or("malformed simulate response")?;
        if rows == expected {
            Ok(rows)
        } else {
            Err(format!(
                "{}: simulate differs from the in-process run",
                WORKING_SET[key]
            ))
        }
    });
    let (rows, elapsed) = outcome?;
    log.window.latencies_us.push(elapsed.as_secs_f64() * 1e6);
    log.book(&rows);
    Some(rows)
}

/// Sends one request as a job, checks its answer with `check`, and books
/// it; returns the checked value and the job's latency (send to parsed
/// answer, busy retries included, the check excluded).
fn request<T>(
    conn: &mut Conn,
    layer: &'static str,
    body: &str,
    log: &mut ClientLog,
    check: impl FnOnce(&Answer) -> Result<T, String>,
) -> Option<(T, Duration)> {
    log.window.attempted += 1;
    let job = conn.next_id;
    let result = trace::job("bench.job", job, || {
        let started = Instant::now();
        let answer = conn.call(layer, body, &mut log.window.busy_retries)?;
        let latency = started.elapsed();
        log.response_bytes += answer.bytes as u64;
        log.responses += 1;
        trace::span("bench.check", || check(&answer)).map(|value| (value, latency))
    });
    match result {
        Ok(value) => {
            log.window.jobs += 1;
            Some(value)
        }
        Err(err) => {
            log.window.fail(err);
            None
        }
    }
}

/// simulate → edit → simulate → revert → simulate on an owned circuit.
fn cycle(conn: &mut Conn, keys: &[Key], read: Read, edit: usize, log: &mut ClientLog) {
    let key = read.key;
    let spec = &keys[key];
    let pristine = &spec.pristine[read.model][read.suite];
    let Some(before) = simulate(conn, keys, read, pristine, log) else {
        return;
    };
    let id = conn.id();
    let body = format!(
        r#"{{"op":"edit","id":{id},"key":{},"commands":{}}}"#,
        json::string(&spec.key),
        spec.commands[edit]
    );
    let Some(((), edit_time)) = request(conn, "serve.client.edit", &body, log, |answer| {
        ok_of(answer).map(|_| ())
    }) else {
        return;
    };
    let edited = simulate(conn, keys, read, &spec.edited[edit], log);
    let id = conn.id();
    let revert = request(
        conn,
        "serve.client.revert",
        &client::revert_request(id, &spec.key),
        log,
        |answer| ok_of(answer).map(|_| ()),
    );
    let Some(((), revert_time)) = revert else {
        return;
    };
    if edited.is_some() {
        log.window
            .edit_us
            .push((edit_time + revert_time).as_secs_f64() * 1e6);
    }
    if let Some(after) = simulate(conn, keys, read, pristine, log) {
        if after != before {
            log.window.fail(format!(
                "{}: simulate after revert differs from before the edit",
                WORKING_SET[key]
            ));
        }
    }
}

impl ServeEco {
    /// The client, closed loop, until `seconds` have passed.
    pub fn run(&mut self, seconds: f64) -> Window {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let mut window =
            run_client(&mut self.conn, &self.keys, &self.schedule, Some(deadline)).window;
        window.wall = started.elapsed();
        window
    }

    fn daemon_stats(&mut self) -> Result<Value, String> {
        let id = self.conn.id();
        let answer = self
            .conn
            .call("serve.client.stats", &client::stats_request(id), &mut 0)?;
        Ok(ok_of(&answer)?.clone())
    }

    /// Deterministic counts: one pass over the schedule, with the daemon's
    /// counter diff across it.
    pub fn count_pass(&mut self, window: &mut Window) -> Counts {
        let read = |stats: &Value, path: &[&str]| -> u64 {
            path.iter()
                .try_fold(stats, |value, field| value.get(field))
                .and_then(Value::as_u64)
                .unwrap_or(0)
        };
        let before = match self.daemon_stats() {
            Ok(stats) => stats,
            Err(err) => {
                window.fail(err);
                return Counts::default();
            }
        };
        // Request ids restart, so the response sizes repeat for a seed too.
        self.conn.next_id = 1;
        let log = run_client(&mut self.conn, &self.keys, &self.schedule, None);
        let mut counts = log.counts;
        counts.busy_retries = log.window.busy_retries;
        window.attempted += log.window.attempted;
        window.failed += log.window.failed;
        window.failures.extend(log.window.failures);
        // A worker counts a job after sending its answer; give the last one
        // the CPU before reading the counters.
        std::thread::sleep(Duration::from_millis(10));
        let after = match self.daemon_stats() {
            Ok(stats) => stats,
            Err(err) => {
                window.fail(err);
                return counts;
            }
        };
        let diff = |path: &[&str]| read(&after, path).saturating_sub(read(&before, path));
        counts.cache_hits = diff(&["cache", "hits"]);
        counts.cache_compiles = diff(&["cache", "compiles"]);
        counts.cache_evictions = diff(&["cache", "evictions"]);
        counts.jobs_executed = diff(&["jobs_executed"]);
        counts.busy_rejections = diff(&["busy_rejections"]);
        self.response_bytes = log.response_bytes as f64 / log.responses.max(1) as f64;
        counts
    }

    /// In-process cost of the requests the daemon answers, against the
    /// traced round trips (run after [`count_pass`](Self::count_pass), which
    /// measures the response sizes).
    pub fn probes(&mut self, layers: &Layers, window: &mut Window) -> Vec<Metric> {
        let library = library();
        let model_configs = models();
        let mut statics = probe::Statics::default();
        let mut runs = probe::Runs::default();
        let mut compute_us = Vec::new();
        let mut edit_us = Vec::new();
        for spec in &self.keys {
            if let Err(err) = statics.netlist(&spec.netlist, library) {
                window.fail(err);
            }
            for suite in &spec.suites {
                statics.expand(suite, &spec.netlist, library);
            }
            let mut circuit = match CompiledCircuit::compile(&spec.netlist, library) {
                Ok(circuit) => circuit,
                Err(err) => {
                    window.fail(err.to_string());
                    continue;
                }
            };
            let mut state = circuit.new_state();
            for config in &model_configs {
                // What the daemon's worker does for one simulate: expand the
                // suite, run each stimulus under the observer bundle.
                for suite in &spec.suites {
                    let fastest = (0..3)
                        .map(|_| {
                            let started = Instant::now();
                            for (_, stimulus) in suite.stimuli(circuit.netlist(), library) {
                                let _ = run_digest(&circuit, &mut state, &stimulus, config);
                            }
                            started.elapsed().as_secs_f64() * 1e6
                        })
                        .fold(f64::INFINITY, f64::min);
                    compute_us.push(fastest);
                    for (_, stimulus) in suite.stimuli(circuit.netlist(), library) {
                        if let Err(err) = runs.measure(&circuit, &mut state, &stimulus, config) {
                            window.fail(err);
                        }
                    }
                }
            }
            for edit in &spec.edits {
                let started = Instant::now();
                if let Err(err) = edit_round_trip(&mut circuit, edit) {
                    window.fail(err);
                }
                edit_us.push(started.elapsed().as_secs_f64() * 1e6);
            }
        }
        let mean = |samples: &[f64]| samples.iter().sum::<f64>() / samples.len().max(1) as f64;
        let simulate_us = layers.get("serve.client.simulate").mean_us();
        let compute = mean(&compute_us);
        let mut metrics = statics.metrics();
        metrics.extend(runs.metrics());
        metrics.extend([
            Metric::new("sim.compiled.run_us", runs.bundle_mean_us(), "us"),
            Metric::new(
                "sim.ns_per_event",
                (runs.bundle_mean_us() - runs.setup_mean_us()) * 1e3 / runs.events_mean().max(1.0),
                "ns",
            ),
            Metric::new("sim.compiled.apply_edits_us", mean(&edit_us), "us"),
            Metric::new("serve.client.simulate_us", simulate_us, "us"),
            Metric::new("serve.compute_us", compute, "us"),
            Metric::new("serve.overhead_us", simulate_us - compute, "us"),
            Metric::new(
                "serve.json.parse_us",
                layers.get("serve.json.parse").mean_us(),
                "us",
            ),
            Metric::new("serve.response_bytes", self.response_bytes, "bytes"),
        ]);
        metrics
    }

    /// Closes the client's connection, drains the daemon and waits for its
    /// threads.
    pub fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.conn.stream.shutdown(std::net::Shutdown::Both);
            handle.initiate_shutdown();
            handle.wait();
        }
    }
}

impl Drop for ServeEco {
    fn drop(&mut self) {
        self.shutdown();
    }
}
