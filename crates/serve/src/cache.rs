//! The compiled-circuit cache and its what-if edit overlays.
//!
//! A `load` request parses netlist text, canonicalises it through the
//! repository's writer, and fingerprints the canonical form — so two
//! textual variations of the same circuit share one cache slot and one
//! compilation.  Entries hold a **pristine** [`CompiledCircuit`] plus an
//! optional **overlay**: a clone of it that `edit` requests mutate in
//! place, with an inverse [`EditScript`] stack
//! ([`halotis_netlist::EditLog::invert`]) so `revert` can walk edits back
//! one at a time without recompiling.
//!
//! The overlay is cloned once per key, on its first `edit`, and kept when
//! `revert` unwinds it to depth 0: later edits reuse it, so an edit costs
//! the incremental recompile alone, never a copy of the circuit.  Reads at
//! depth 0 still run on the pristine tables.  The price is one extra
//! compiled copy resident per edited key until the entry is evicted.  An
//! edit is atomic all the same: the overlay records the forward command
//! scripts of its outstanding edits, and when a script fails (or panics)
//! part-way, the overlay is rebuilt from a fresh pristine clone plus a
//! replay of those scripts before the error is answered — only the error
//! path pays the clone.
//!
//! Eviction is LRU over a monotone touch tick, bounded by a fixed capacity.
//! Evicting an entry that is mid-simulation is safe: requests hold an
//! [`Arc`], so the circuit lives until the last in-flight request drops it
//! (its key simply stops resolving).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use halotis_netlist::{
    parser, technology, verilog, writer, EditLog, EditScript, Library, Netlist, NetlistError,
};
use halotis_sim::CompiledCircuit;

use crate::protocol::{EditCommand, ErrorCode, NetlistFormat, ProtocolError};

/// The daemon's one library, with `'static` lifetime so compiled circuits
/// are cacheable across connections.
pub fn library() -> &'static Library {
    static LIBRARY: OnceLock<Library> = OnceLock::new();
    LIBRARY.get_or_init(technology::cmos06)
}

/// 64-bit FNV-1a over the library name and the canonical netlist text.
fn fingerprint(library_name: &str, canonical: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in library_name
        .as_bytes()
        .iter()
        .chain(&[0u8])
        .chain(canonical.as_bytes())
    {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The long-lived what-if copy of a pristine circuit.
#[derive(Debug)]
struct Overlay {
    /// A clone of the pristine circuit, edited in place.  With no edits
    /// outstanding it is a spare, equivalent to pristine.
    circuit: CompiledCircuit<'static>,
    /// Forward command scripts of the outstanding edits, oldest first: what
    /// a rebuild replays on a fresh pristine clone.
    scripts: Vec<Vec<EditCommand>>,
    /// Inverse scripts, one per outstanding edit, newest last.
    revert_stack: Vec<EditScript>,
    /// Set when some edit lost invertibility (a renumbering removal); the
    /// only revert left is a full reset to pristine.
    non_invertible: bool,
}

impl Overlay {
    fn clone_of(pristine: &CompiledCircuit<'static>) -> Self {
        Overlay {
            circuit: pristine.clone(),
            scripts: Vec::new(),
            revert_stack: Vec::new(),
            non_invertible: false,
        }
    }

    /// Replaces a circuit a failed script left half-edited with a fresh
    /// pristine clone carrying the outstanding edits again.  `false` when a
    /// script that applied before fails on replay.
    fn rebuild(&mut self, pristine: &CompiledCircuit<'static>) -> bool {
        self.circuit = pristine.clone();
        self.scripts
            .iter()
            .all(|script| run_script(&mut self.circuit, script).is_ok())
    }
}

/// The mutable half of a cache entry, behind the entry's [`RwLock`].
#[derive(Debug)]
pub struct CircuitState {
    /// The as-loaded compilation; never mutated after insert.
    pub pristine: CompiledCircuit<'static>,
    /// The edited copy, once this key has seen an `edit`.
    overlay: Option<Overlay>,
}

impl CircuitState {
    fn new(pristine: CompiledCircuit<'static>) -> Self {
        CircuitState {
            pristine,
            overlay: None,
        }
    }

    /// The circuit requests should run against: the overlay when edits are
    /// outstanding, the pristine compilation otherwise.
    pub fn active(&self) -> &CompiledCircuit<'static> {
        match &self.overlay {
            Some(overlay) if !overlay.scripts.is_empty() => &overlay.circuit,
            _ => &self.pristine,
        }
    }

    /// The `revert_depth` the last `edit` or `revert` answered: outstanding
    /// edits that can still be reverted one at a time.  It is 0 at pristine,
    /// and also after an edit lost invertibility, where one `revert` resets
    /// every outstanding edit.
    pub fn revert_depth(&self) -> usize {
        self.overlay
            .as_ref()
            .map_or(0, |overlay| overlay.revert_stack.len())
    }

    /// Applies one edit request atomically, in place on the overlay (cloned
    /// from pristine on the key's first edit).  When a command fails, or the
    /// script panics, the overlay is rebuilt before the error is returned,
    /// so a failed request leaves the state exactly as it found it (the
    /// engine treats a half-edited circuit as stale, so partial application
    /// is never acceptable here).
    pub fn apply_commands(
        &mut self,
        commands: &[EditCommand],
    ) -> Result<EditReport, ProtocolError> {
        let pristine = &self.pristine;
        let overlay = self
            .overlay
            .get_or_insert_with(|| Overlay::clone_of(pristine));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_script(&mut overlay.circuit, commands)
        }))
        .unwrap_or_else(|_| {
            Err(ProtocolError::new(
                ErrorCode::InternalError,
                "the edit panicked; nothing was applied",
            ))
        });
        let log = match outcome {
            Ok(log) => log,
            Err(mut error) => {
                if !overlay.rebuild(pristine) {
                    // Cannot happen for scripts that applied before; should
                    // it, pristine is the one state known to be sound.
                    self.overlay = None;
                    error
                        .message
                        .push_str("; the outstanding edits could not be replayed and were reset");
                }
                return Err(error);
            }
        };

        overlay.scripts.push(commands.to_vec());
        overlay.non_invertible |= !log.is_invertible();
        if overlay.non_invertible {
            // Stepwise history is no longer replayable; only a reset remains.
            overlay.revert_stack.clear();
        } else {
            overlay
                .revert_stack
                .push(log.invert().expect("invertible log must invert"));
        }
        Ok(EditReport {
            edits: log.edits(),
            revert_depth: overlay.revert_stack.len(),
            invertible: !overlay.non_invertible,
        })
    }

    /// Undoes the most recent outstanding edit.  Returns how the revert was
    /// performed: `"inverse"` (one script replayed backwards, in place) or
    /// `"reset"` (overlay dropped wholesale, because invertibility was
    /// lost).  Unwinding to depth 0 keeps the overlay as a spare for the
    /// next edit, while reads return to the pristine tables.
    pub fn revert(&mut self) -> Result<RevertReport, ProtocolError> {
        let Some(overlay) = self
            .overlay
            .as_mut()
            .filter(|overlay| !overlay.scripts.is_empty())
        else {
            return Err(ProtocolError::new(
                ErrorCode::NothingToRevert,
                "no edits are outstanding on this circuit",
            ));
        };
        let reset = RevertReport {
            via: "reset",
            revert_depth: 0,
        };
        if overlay.non_invertible {
            // Dropping the overlay *is* the revert: the pristine circuit
            // becomes active again.
            self.overlay = None;
            return Ok(reset);
        }
        overlay.scripts.pop();
        let script = overlay
            .revert_stack
            .pop()
            .expect("invertible overlay keeps one script per edit");
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            overlay.circuit.edit(|session| script.apply(session))
        }));
        if !matches!(replayed, Ok(Ok(_))) {
            // An inverse script failing means the overlay is corrupt; fall
            // back to the reset path rather than serving a stale circuit.
            self.overlay = None;
            return Ok(reset);
        }
        Ok(RevertReport {
            via: "inverse",
            revert_depth: overlay.revert_stack.len(),
        })
    }
}

/// What an `edit` request reports back.
#[derive(Clone, Copy, Debug)]
pub struct EditReport {
    /// Mutating calls the session performed.
    pub edits: usize,
    /// Outstanding edits that can still be reverted stepwise.
    pub revert_depth: usize,
    /// Whether stepwise revert is still available.
    pub invertible: bool,
}

/// What a `revert` request reports back.
#[derive(Clone, Copy, Debug)]
pub struct RevertReport {
    /// `"inverse"` or `"reset"`.
    pub via: &'static str,
    /// Outstanding edits remaining after this revert.
    pub revert_depth: usize,
}

enum CommandError {
    Netlist(NetlistError),
    Protocol(ProtocolError),
}

fn resolve_gate(netlist: &Netlist, name: &str) -> Result<halotis_core::GateId, CommandError> {
    netlist
        .gates()
        .iter()
        .find(|gate| gate.name() == name)
        .map(|gate| gate.id())
        .ok_or_else(|| {
            CommandError::Protocol(ProtocolError::new(
                ErrorCode::UnknownGate,
                format!("no gate named {name:?}"),
            ))
        })
}

fn resolve_net(netlist: &Netlist, name: &str) -> Result<halotis_core::NetId, CommandError> {
    netlist.net_id(name).ok_or_else(|| {
        CommandError::Protocol(ProtocolError::new(
            ErrorCode::UnknownNet,
            format!("no net named {name:?}"),
        ))
    })
}

/// Runs one request's commands in a single edit session on `circuit`.  On
/// error the circuit is stale (see [`CompiledCircuit::edit`]) and must be
/// rebuilt by the caller.
fn run_script(
    circuit: &mut CompiledCircuit<'static>,
    commands: &[EditCommand],
) -> Result<EditLog, ProtocolError> {
    let mut failure: Option<ProtocolError> = None;
    circuit
        .edit(|session| {
            for command in commands {
                if let Some(error) = apply_command(session, command) {
                    return match error {
                        CommandError::Netlist(err) => Err(err),
                        CommandError::Protocol(err) => {
                            failure = Some(err);
                            // Sentinel to abort the session; the caller
                            // rebuilds the circuit, so it never escapes.
                            Err(NetlistError::DuplicateNet {
                                name: String::new(),
                            })
                        }
                    };
                }
            }
            Ok(())
        })
        .map_err(|err| {
            failure.unwrap_or_else(|| ProtocolError::new(ErrorCode::NetlistError, err.to_string()))
        })
}

/// Applies one command inside an open session; `None` means success.
/// (Inverted-Option shape so the caller can keep the borrow checker happy
/// while smuggling protocol errors out of the [`CompiledCircuit::edit`]
/// closure.)
fn apply_command(
    session: &mut halotis_netlist::EditSession<'_>,
    command: &EditCommand,
) -> Option<CommandError> {
    let result = match command {
        EditCommand::SwapKind { gate, kind } => {
            resolve_gate(session.netlist(), gate).and_then(|gate| {
                session
                    .swap_cell_kind(gate, *kind)
                    .map_err(CommandError::Netlist)
            })
        }
        EditCommand::Rewire { gate, input, net } => {
            resolve_gate(session.netlist(), gate).and_then(|gate_id| {
                let net_id = resolve_net(session.netlist(), net)?;
                session
                    .rewire_input(gate_id, *input, net_id)
                    .map_err(CommandError::Netlist)
            })
        }
        EditCommand::Insert {
            kind,
            name,
            inputs,
            output,
        } => inputs
            .iter()
            .map(|input| resolve_net(session.netlist(), input))
            .collect::<Result<Vec<_>, _>>()
            .and_then(|inputs| {
                session
                    .insert_gate(*kind, name.clone(), &inputs, output.clone())
                    .map(|_| ())
                    .map_err(CommandError::Netlist)
            }),
        EditCommand::Remove { gate } => resolve_gate(session.netlist(), gate).and_then(|gate| {
            session
                .remove_gate(gate)
                .map(|_| ())
                .map_err(CommandError::Netlist)
        }),
        EditCommand::Expose { net } => resolve_net(session.netlist(), net)
            .and_then(|net| session.expose_net(net).map_err(CommandError::Netlist)),
        EditCommand::Unexpose { net } => resolve_net(session.netlist(), net)
            .and_then(|net| session.unexpose_net(net).map_err(CommandError::Netlist)),
    };
    result.err()
}

/// One cached circuit.
#[derive(Debug)]
pub struct CacheEntry {
    key: String,
    circuit_name: String,
    last_used: AtomicU64,
    /// Pristine compilation + overlay; simulate takes the read side, edit
    /// and revert the write side.
    pub state: RwLock<CircuitState>,
}

impl CacheEntry {
    /// The fingerprint key clients address this entry by.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The netlist's own name (informational).
    pub fn circuit_name(&self) -> &str {
        &self.circuit_name
    }

    /// Read access to the state, surviving poisoning (a panicking worker
    /// must not wedge the daemon).
    pub fn read_state(&self) -> std::sync::RwLockReadGuard<'_, CircuitState> {
        self.state.read().unwrap_or_else(|err| err.into_inner())
    }

    /// Write access to the state (see [`read_state`](Self::read_state)).
    pub fn write_state(&self) -> std::sync::RwLockWriteGuard<'_, CircuitState> {
        self.state.write().unwrap_or_else(|err| err.into_inner())
    }
}

/// What a `load` request reports back.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The fingerprint key to address the circuit by.
    pub key: String,
    /// The netlist's own name.
    pub circuit: String,
    /// Gate count.
    pub gates: usize,
    /// Net count.
    pub nets: usize,
    /// `true` when the key was already compiled (this request did no work).
    pub cached: bool,
}

/// Counters the `stats` op reports for the cache.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheCounters {
    /// Circuits currently resident.
    pub entries: usize,
    /// `load` requests that found their key already compiled.
    pub hits: u64,
    /// Fresh compilations performed.
    pub compiles: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

/// The LRU-bounded circuit cache.
#[derive(Debug)]
pub struct CircuitCache {
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    compiles: AtomicU64,
    evictions: AtomicU64,
    entries: Mutex<HashMap<String, Arc<CacheEntry>>>,
}

impl CircuitCache {
    /// Creates a cache holding at most `capacity` circuits (minimum 1).
    pub fn new(capacity: usize) -> Self {
        CircuitCache {
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: Mutex::new(HashMap::new()),
        }
    }

    fn touch(&self, entry: &CacheEntry) {
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        entry.last_used.store(now, Ordering::Relaxed);
    }

    /// Parses, canonicalises, fingerprints and (if new) compiles `text` in
    /// the native `.net` format.
    pub fn load(&self, text: &str) -> Result<LoadReport, ProtocolError> {
        self.load_as(text, NetlistFormat::Net)
    }

    /// [`load`](Self::load) with an explicit interchange format.
    ///
    /// The fingerprint key is computed over the canonical `.net` re-emission,
    /// never the submitted text, so the same circuit keys identically whether
    /// it arrived as `.net` or as structural Verilog.
    pub fn load_as(&self, text: &str, format: NetlistFormat) -> Result<LoadReport, ProtocolError> {
        let parsed = match format {
            NetlistFormat::Net => parser::parse(text)
                .map_err(|err| ProtocolError::new(ErrorCode::NetlistError, err.to_string()))?,
            NetlistFormat::Verilog => verilog::parse_verilog(text)
                .map_err(|err| ProtocolError::new(ErrorCode::NetlistError, err.to_string()))?,
        };
        let canonical = writer::to_text(&parsed);
        let key = format!("c-{:016x}", fingerprint(library().name(), &canonical));

        let mut entries = self.entries.lock().unwrap_or_else(|err| err.into_inner());
        if let Some(entry) = entries.get(&key) {
            self.touch(entry);
            self.hits.fetch_add(1, Ordering::Relaxed);
            let state = entry.read_state();
            return Ok(LoadReport {
                key: key.clone(),
                circuit: entry.circuit_name.clone(),
                gates: state.pristine.netlist().gates().len(),
                nets: state.pristine.netlist().nets().len(),
                cached: true,
            });
        }

        let pristine = CompiledCircuit::compile_owned(parsed, library())
            .map_err(|err| ProtocolError::new(ErrorCode::NetlistError, err.to_string()))?;
        let report = LoadReport {
            key: key.clone(),
            circuit: pristine.netlist().name().to_string(),
            gates: pristine.netlist().gates().len(),
            nets: pristine.netlist().nets().len(),
            cached: false,
        };
        let entry = Arc::new(CacheEntry {
            key: key.clone(),
            circuit_name: report.circuit.clone(),
            last_used: AtomicU64::new(0),
            state: RwLock::new(CircuitState::new(pristine)),
        });
        self.touch(&entry);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        entries.insert(key, entry);

        while entries.len() > self.capacity {
            let Some(victim) = entries
                .values()
                .min_by_key(|entry| entry.last_used.load(Ordering::Relaxed))
                .map(|entry| entry.key.clone())
            else {
                break;
            };
            entries.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(report)
    }

    /// Resolves a key, refreshing its LRU position.
    pub fn get(&self, key: &str) -> Option<Arc<CacheEntry>> {
        let entries = self.entries.lock().unwrap_or_else(|err| err.into_inner());
        let entry = entries.get(key)?;
        self.touch(entry);
        Some(Arc::clone(entry))
    }

    /// Snapshot of the cache counters.
    pub fn counters(&self) -> CacheCounters {
        let entries = self.entries.lock().unwrap_or_else(|err| err.into_inner());
        CacheCounters {
            entries: entries.len(),
            hits: self.hits.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halotis_core::TimeDelta;
    use halotis_corpus::StimulusSuite;
    use halotis_netlist::{generators, CellKind};
    use halotis_sim::{SimulationConfig, SimulationStats};

    fn c17_text() -> String {
        writer::to_text(&generators::c17())
    }

    #[test]
    fn load_is_idempotent_and_canonicalising() {
        let cache = CircuitCache::new(4);
        let first = cache.load(&c17_text()).unwrap();
        assert!(!first.cached);
        let second = cache.load(&c17_text()).unwrap();
        assert!(second.cached);
        assert_eq!(first.key, second.key);
        assert_eq!(cache.counters().compiles, 1);
        assert_eq!(cache.counters().hits, 1);
    }

    #[test]
    fn verilog_loads_key_identically_to_net_loads() {
        let cache = CircuitCache::new(4);
        let native = cache.load(&c17_text()).unwrap();
        let verilog = cache
            .load_as(
                &verilog::to_verilog(&generators::c17()),
                NetlistFormat::Verilog,
            )
            .unwrap();
        // Same circuit, different carrier format: one compile, one hit.
        assert_eq!(native.key, verilog.key);
        assert!(verilog.cached);
        assert_eq!(cache.counters().compiles, 1);
    }

    #[test]
    fn unparseable_verilog_reports_a_netlist_error() {
        let cache = CircuitCache::new(4);
        let err = cache
            .load_as("module broken(", NetlistFormat::Verilog)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::NetlistError);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let cache = CircuitCache::new(2);
        let a = cache.load(&writer::to_text(&generators::c17())).unwrap();
        let b = cache
            .load(&writer::to_text(&generators::parity_tree(4)))
            .unwrap();
        // Touch `a` so `b` is the LRU victim when a third circuit arrives.
        assert!(cache.get(&a.key).is_some());
        let c = cache
            .load(&writer::to_text(&generators::ripple_carry_adder(2)))
            .unwrap();
        assert!(cache.get(&a.key).is_some());
        assert!(cache.get(&b.key).is_none());
        assert!(cache.get(&c.key).is_some());
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.counters().entries, 2);
    }

    #[test]
    fn edits_overlay_and_revert_restores_pristine() {
        let cache = CircuitCache::new(4);
        let report = cache.load(&c17_text()).unwrap();
        let entry = cache.get(&report.key).unwrap();

        let mut state = entry.write_state();
        let gate = state.pristine.netlist().gates()[0].name().to_string();
        let edit = state
            .apply_commands(&[EditCommand::SwapKind {
                gate,
                kind: CellKind::Nor2,
            }])
            .unwrap();
        assert_eq!(edit.edits, 1);
        assert_eq!(edit.revert_depth, 1);
        assert!(edit.invertible);
        assert_ne!(
            state.active().netlist().gates()[0].kind(),
            state.pristine.netlist().gates()[0].kind()
        );

        assert_eq!(state.revert_depth(), 1);

        let revert = state.revert().unwrap();
        assert_eq!(revert.via, "inverse");
        assert_eq!(revert.revert_depth, 0);
        assert_eq!(state.revert_depth(), 0);
        assert!(std::ptr::eq(state.active(), &state.pristine));
        assert!(matches!(
            state.revert(),
            Err(ProtocolError {
                code: ErrorCode::NothingToRevert,
                ..
            })
        ));
    }

    #[test]
    fn unknown_names_fail_atomically() {
        let cache = CircuitCache::new(4);
        let report = cache.load(&c17_text()).unwrap();
        let entry = cache.get(&report.key).unwrap();
        let mut state = entry.write_state();
        let gate = state.pristine.netlist().gates()[0].name().to_string();
        let err = state
            .apply_commands(&[
                EditCommand::SwapKind {
                    gate,
                    kind: CellKind::Nor2,
                },
                EditCommand::Remove {
                    gate: "missing".to_string(),
                },
            ])
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownGate);
        // The first (valid) command must not have leaked through: reads run
        // on pristine, and the overlay kept for the next edit is unedited.
        assert_eq!(state.revert_depth(), 0);
        assert!(std::ptr::eq(state.active(), &state.pristine));
        let spare = &state.overlay.as_ref().expect("overlay kept").circuit;
        assert_eq!(
            spare.netlist().gates()[0].kind(),
            state.pristine.netlist().gates()[0].kind()
        );
    }

    /// Every counter of a few seeded random vectors under DDM.
    fn digest(circuit: &CompiledCircuit<'_>) -> Vec<SimulationStats> {
        let suite = StimulusSuite::RandomVectors {
            vectors: 4,
            period: TimeDelta::from_ns(5.0),
            seed: 11,
        };
        let mut state = circuit.new_state();
        suite
            .stimuli(circuit.netlist(), library())
            .iter()
            .map(|(_, stimulus)| {
                circuit
                    .run_stats(&mut state, stimulus, &SimulationConfig::default())
                    .unwrap()
            })
            .collect()
    }

    fn swap(gate: &str, kind: CellKind) -> EditCommand {
        EditCommand::SwapKind {
            gate: gate.to_string(),
            kind,
        }
    }

    /// Edits to depth 1, runs `failing` (which must fail with `code`), and
    /// checks that the depth-1 circuit survived it intact, still reverts
    /// through its inverse script, and that the rebuilt overlay serves the
    /// next edit (`failing`'s first command) like a fresh compile.
    fn assert_failed_edit_keeps_depth_one(
        pristine: CompiledCircuit<'static>,
        valid: EditCommand,
        failing: &[EditCommand],
        code: ErrorCode,
    ) {
        let mut state = CircuitState::new(pristine);
        let pristine = digest(&state.pristine);
        state.apply_commands(&[valid]).unwrap();
        let depth_one = digest(state.active());
        assert_ne!(depth_one, pristine, "the valid edit must show");

        assert_eq!(state.apply_commands(failing).unwrap_err().code, code);
        assert_eq!(state.revert_depth(), 1);
        assert_eq!(digest(state.active()), depth_one);

        assert_eq!(state.revert().unwrap().via, "inverse");
        assert!(std::ptr::eq(state.active(), &state.pristine));
        state.apply_commands(&failing[..1]).unwrap();
        let fresh =
            CompiledCircuit::compile(state.active().netlist(), state.pristine.library()).unwrap();
        assert_eq!(digest(state.active()), digest(&fresh));
    }

    fn c17_gate(index: usize) -> String {
        generators::c17().gates()[index].name().to_string()
    }

    #[test]
    fn a_failing_command_at_depth_one_leaves_the_overlay_as_it_was() {
        assert_failed_edit_keeps_depth_one(
            CompiledCircuit::compile_owned(generators::c17(), library()).unwrap(),
            swap(&c17_gate(0), CellKind::Nor2),
            &[
                swap(&c17_gate(1), CellKind::Xor2),
                swap("ghost", CellKind::Nor2),
            ],
            ErrorCode::UnknownGate,
        );
    }

    #[test]
    fn a_failing_incremental_recompile_leaves_the_overlay_as_it_was() {
        // A library without XOR2: the session accepts the swap, and the
        // incremental recompile then fails on the uncharacterised cell,
        // after it has patched part of the tables.
        let full = library();
        let mut partial = Library::new(full.name(), full.vdd());
        partial.set_default_input_slew(full.default_input_slew());
        partial.set_wire_capacitance(full.wire_capacitance());
        for kind in full.kinds().filter(|&kind| kind != CellKind::Xor2) {
            partial.insert(kind, full.cell(kind).unwrap().clone());
        }
        let partial: &'static Library = Box::leak(Box::new(partial));
        assert_failed_edit_keeps_depth_one(
            CompiledCircuit::compile_owned(generators::c17(), partial).unwrap(),
            swap(&c17_gate(0), CellKind::Nor2),
            &[
                swap(&c17_gate(2), CellKind::And2),
                swap(&c17_gate(1), CellKind::Xor2),
            ],
            ErrorCode::NetlistError,
        );
    }

    #[test]
    fn a_register_swap_that_closes_a_loop_fails_cleanly() {
        // dff5 sits on the loop g10 → dff5 → g5 → nor11 → g11 → nor10 → g10;
        // as an AND2 it closes it combinationally.  Release builds reject
        // that in the incremental re-levelization, debug builds panic in the
        // edit session's invariant sweep first.
        let s27 = CompiledCircuit::compile_owned(halotis_netlist::iscas::s27(), library());
        let code = if cfg!(debug_assertions) {
            ErrorCode::InternalError
        } else {
            ErrorCode::NetlistError
        };
        assert_failed_edit_keeps_depth_one(
            s27.unwrap(),
            swap("nor12", CellKind::Nand2),
            &[swap("nor13", CellKind::Xor2), swap("dff5", CellKind::And2)],
            code,
        );
    }

    #[test]
    fn edit_revert_cycles_reuse_one_overlay() {
        let c432 = halotis_netlist::iscas::c432();
        let two_input = c432
            .gates()
            .iter()
            .find(|gate| gate.inputs().len() == 2 && gate.kind() != CellKind::Nor2)
            .unwrap()
            .name()
            .to_string();
        let last = c432.gates().last().unwrap().name().to_string();
        let input = c432.net(c432.primary_inputs()[0]).name().to_string();
        let commands = [
            swap(&two_input, CellKind::Nor2),
            EditCommand::Rewire {
                gate: last,
                input: 0,
                net: input.clone(),
            },
            EditCommand::Insert {
                kind: CellKind::Inv,
                name: "probe_g".to_string(),
                inputs: vec![input],
                output: "probe_n".to_string(),
            },
        ];
        let mut state = CircuitState::new(CompiledCircuit::compile_owned(c432, library()).unwrap());
        let pristine = digest(&state.pristine);
        let sizes = |state: &CircuitState| {
            let arena = state.active().new_state();
            (arena.pin_count(), arena.gate_count(), arena.net_count())
        };
        let mut first = None;
        for cycle in 1..=200 {
            let report = state.apply_commands(&commands).unwrap();
            assert_eq!((report.edits, report.revert_depth), (3, 1));
            let tables = state.active().netlist().gates().as_ptr();
            let edited = digest(state.active());
            if cycle == 1 || cycle == 200 {
                let fresh = CompiledCircuit::compile(state.active().netlist(), library()).unwrap();
                assert_eq!(edited, digest(&fresh), "cycle {cycle}");
            }
            let (first_tables, first_sizes, first_edited) =
                first.get_or_insert_with(|| (tables, sizes(&state), edited.clone()));
            // The same overlay allocation is edited every cycle, never a
            // fresh clone.
            assert_eq!(tables, *first_tables, "cycle {cycle}");
            assert_eq!(sizes(&state), *first_sizes, "cycle {cycle}");
            assert_eq!(edited, *first_edited, "cycle {cycle}");

            assert_eq!(state.revert().unwrap().via, "inverse");
            assert!(std::ptr::eq(state.active(), &state.pristine));
            if cycle == 1 || cycle == 200 {
                assert_eq!(digest(state.active()), pristine);
            }
        }
    }
}
