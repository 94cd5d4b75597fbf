//! Pieces shared by the workloads: seeded generation, the corpus observer
//! bundle, run digests for output checks, seeded edit scripts, statistics.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use halotis_core::{GateId, NetId};
use halotis_corpus::{mixed_model, GlitchProfile, WallClockProbe};
use halotis_netlist::{technology, CellKind, EditLog, Library, Netlist};
use halotis_sim::{
    ActivityCounter, CompiledCircuit, DelayModelKind, PowerAccumulator, SimObserver,
    SimulationConfig, SimulationError, SimulationStats,
};

use crate::trace;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed always generates the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// The technology library every workload simulates against.
pub fn library() -> &'static Library {
    static LIBRARY: OnceLock<Library> = OnceLock::new();
    LIBRARY.get_or_init(technology::cmos06)
}

/// Protocol names of the three model columns, in [`models`] order.
pub const MODEL_NAMES: [&str; 3] = ["ddm", "cdm", "mix"];

/// The corpus's three model columns: DDM, CDM and the per-cell mix.
pub fn models() -> [SimulationConfig; 3] {
    [
        SimulationConfig::default().model(DelayModelKind::Degradation),
        SimulationConfig::default().model(DelayModelKind::Conventional),
        SimulationConfig::default().model(mixed_model()),
    ]
}

/// The corpus runner's observer bundle.
pub type Bundle = (
    (ActivityCounter, PowerAccumulator),
    (GlitchProfile, WallClockProbe),
);

pub fn bundle() -> Bundle {
    (
        (ActivityCounter::new(), PowerAccumulator::new()),
        (GlitchProfile::new(), WallClockProbe::new()),
    )
}

/// Everything a run reports that must repeat exactly: the statistics and
/// the bundle's derived columns (energy compared bitwise).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub stats: SimulationStats,
    pub transitions: usize,
    pub glitches: usize,
    pub energy_bits: u64,
}

impl Digest {
    pub fn of(stats: SimulationStats, observer: &Bundle) -> Self {
        let ((activity, power), (glitches, _)) = observer;
        Digest {
            stats,
            transitions: activity.total_transitions(),
            glitches: glitches.total_glitches(),
            energy_bits: power.total_joules().to_bits(),
        }
    }
}

/// Runs one stimulus under the bundle on `state` and digests the result.
pub fn run_digest(
    circuit: &CompiledCircuit<'_>,
    state: &mut halotis_sim::SimState,
    stimulus: &halotis_waveform::Stimulus,
    config: &SimulationConfig,
) -> Result<Digest, SimulationError> {
    let mut observer = bundle();
    let stats = circuit.run_observed(state, stimulus, config, &mut observer)?;
    Ok(Digest::of(stats, &observer))
}

/// Times one batch-runner scenario from the moment the runner asks for its
/// observer (just before `run_observed`, on the thread that runs it) to the
/// run's `finish`, and records it as a `sim.compiled.run` span under the
/// batch span when tracing.
pub struct RunProbe {
    start: Instant,
    cpu_start: Duration,
    parent: (u32, u64),
    /// The run's latency: the CPU time its thread spent on it (see
    /// [`thread_cpu_time`]).
    pub elapsed: Option<Duration>,
}

impl RunProbe {
    pub fn new(parent: (u32, u64)) -> Self {
        let start = Instant::now();
        let cpu_start = thread_cpu_time();
        trace::spin(RUN_LAYER);
        RunProbe {
            start,
            cpu_start,
            parent,
            elapsed: None,
        }
    }
}

pub const RUN_LAYER: &str = "sim.compiled.run";

impl SimObserver for RunProbe {
    fn finish(&mut self, _stats: &SimulationStats) {
        let end = Instant::now();
        self.elapsed = Some(thread_cpu_time() - self.cpu_start);
        trace::record(RUN_LAYER, self.parent.0, self.parent.1, self.start, end);
    }
}

/// Two-input cells an edit may swap among (same arity, so the swap always
/// succeeds).
const SWAPPABLE: [CellKind; 6] = [
    CellKind::Nand2,
    CellKind::Nor2,
    CellKind::And2,
    CellKind::Or2,
    CellKind::Xor2,
    CellKind::Xnor2,
];

/// A seeded what-if edit: swap one gate's cell kind and rewire one input of
/// a gate to a primary input (a primary input closes no loop, so the edit
/// never fails).
#[derive(Clone, Debug)]
pub struct Edit {
    pub swap_gate: GateId,
    pub kind: CellKind,
    pub rewire_gate: GateId,
    pub input: usize,
    pub net: NetId,
}

impl Edit {
    /// Picks an edit for `netlist`.
    ///
    /// # Panics
    ///
    /// Panics when the netlist has no swappable two-input gate or fewer than
    /// two primary inputs (no workload circuit is like that).
    pub fn pick(netlist: &Netlist, rng: &mut Rng) -> Edit {
        let candidates: Vec<GateId> = netlist
            .gates()
            .iter()
            .filter(|gate| SWAPPABLE.contains(&gate.kind()))
            .map(|gate| gate.id())
            .collect();
        assert!(
            !candidates.is_empty(),
            "{} has no swappable gate",
            netlist.name()
        );
        let inputs = netlist.primary_inputs();
        assert!(
            inputs.len() >= 2,
            "{} needs two primary inputs",
            netlist.name()
        );
        let swap_gate = candidates[rng.below(candidates.len())];
        let current = netlist.gate(swap_gate).kind();
        let others: Vec<CellKind> = SWAPPABLE.into_iter().filter(|&k| k != current).collect();
        let kind = others[rng.below(others.len())];
        let rewire_gate = candidates[rng.below(candidates.len())];
        let input = rng.below(2);
        let driven = netlist.gate(rewire_gate).inputs()[input];
        let choices: Vec<NetId> = inputs.iter().copied().filter(|&n| n != driven).collect();
        let net = choices[rng.below(choices.len())];
        Edit {
            swap_gate,
            kind,
            rewire_gate,
            input,
            net,
        }
    }

    /// Applies the edit through the circuit's edit session.
    pub fn apply(&self, circuit: &mut CompiledCircuit<'_>) -> Result<EditLog, SimulationError> {
        circuit.edit(|session| {
            session.swap_cell_kind(self.swap_gate, self.kind)?;
            session.rewire_input(self.rewire_gate, self.input, self.net)
        })
    }

    /// The same edit as wire-protocol commands (by name).
    pub fn commands_json(&self, netlist: &Netlist) -> String {
        use halotis_serve::json::string;
        format!(
            r#"[{{"action":"swap_kind","gate":{},"kind":{}}},{{"action":"rewire","gate":{},"input":{},"net":{}}}]"#,
            string(netlist.gate(self.swap_gate).name()),
            string(self.kind.name()),
            string(netlist.gate(self.rewire_gate).name()),
            self.input,
            string(netlist.net(self.net).name()),
        )
    }
}

/// Edit then revert (replaying the inverted log) on a compiled circuit: the
/// in-process ECO round trip.
pub fn edit_round_trip(circuit: &mut CompiledCircuit<'_>, edit: &Edit) -> Result<(), String> {
    let log = edit.apply(circuit).map_err(|err| err.to_string())?;
    let inverse = log.invert().map_err(|err| err.to_string())?;
    circuit
        .edit(|session| inverse.apply(session))
        .map_err(|err| err.to_string())?;
    Ok(())
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU time the calling thread has used so far (`CLOCK_THREAD_CPUTIME_ID`).
///
/// A job that runs start to end on one thread without blocking costs this
/// much host time on an otherwise idle machine.  Unlike the wall clock it
/// leaves out time the thread spent preempted by other threads or stolen
/// from the virtual machine by its host (with steal-time accounting, as on
/// KVM guests), so it measures the program rather than the scheduler.
pub fn thread_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, time: *mut Timespec) -> std::ffi::c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: std::ffi::c_int = 3;
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable timespec for the call's duration.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(time.tv_sec as u64, time.tv_nsec as u32)
}

/// Pins the calling thread, and every thread it starts from then on, to the
/// last CPU it may run on; `false` when the host refuses.  A fixed choice,
/// because the CPUs of a virtual machine need not be equally fast: pinned
/// to whichever CPU a run happened to start on, serve_eco's figures on a
/// 2-vCPU VM split into two groups about 20% apart.
pub fn pin_to_last_cpu() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: std::ffi::c_int, size: usize, mask: *mut u64) -> std::ffi::c_int;
        fn sched_setaffinity(
            pid: std::ffi::c_int,
            size: usize,
            mask: *const u64,
        ) -> std::ffi::c_int;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable CPU set of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().rposition(|&bits| bits != 0) else {
        return false;
    };
    let last = 1u64 << (63 - mask[word].leading_zeros());
    mask = [0; 16];
    mask[word] = last;
    // SAFETY: as above, read-only.
    unsafe { sched_setaffinity(0, size, mask.as_ptr()) == 0 }
}

/// Worker/client thread count: the host's hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|name| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
