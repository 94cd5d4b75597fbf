//! Simulation as a service: the HALOTIS compiled-circuit daemon.
//!
//! The engine's compile-once artefacts ([`CompiledCircuit`]) are expensive
//! to build and cheap to run; this crate puts them behind a long-lived
//! daemon so many clients can share one compilation.  The pieces:
//!
//! | Module | Contents |
//! |---|---|
//! | [`frame`] | 4-byte length-prefixed framing, with timeout/size defence |
//! | [`json`] | re-export of `halotis_corpus::json`, the dependency-free JSON reader/writer |
//! | [`protocol`] | request/response grammar + every structured error code |
//! | [`cache`] | fingerprint-keyed LRU circuit cache with what-if edit overlays |
//! | [`scheduler`] | fixed worker pool, one reusable [`SimState`] arena per worker |
//! | [`server`] | TCP + Unix-socket listeners, dispatch, graceful drain |
//! | [`client`] | blocking client (pipelining-capable) |
//! | [`loadgen`] | corpus replay load generator + golden-stats differential check |
//!
//! The wire contract is specified in `PROTOCOL.md` at the repository root.
//! Two binaries ship from the facade crate: `halotis-serve` (the daemon)
//! and `halotis-load` (the load generator feeding `BENCH_serve.json`).
//!
//! Responses are **bit-identical** to in-process runs: the daemon funnels
//! every simulation through the same [`CompiledCircuit::run_observed`] path
//! the corpus runner uses, worker arenas are re-shaped per circuit via
//! [`CompiledCircuit::adapt_state`] (proven equivalent to fresh arenas),
//! and floats cross the wire in shortest-round-trip form.
//!
//! [`CompiledCircuit`]: halotis_sim::CompiledCircuit
//! [`CompiledCircuit::run_observed`]: halotis_sim::CompiledCircuit::run_observed
//! [`CompiledCircuit::adapt_state`]: halotis_sim::CompiledCircuit::adapt_state
//! [`SimState`]: halotis_sim::SimState

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod frame;
pub use halotis_corpus::json;
pub mod loadgen;
pub mod protocol;
pub mod scheduler;
pub mod server;

pub use cache::{CacheEntry, CircuitCache, LoadReport};
pub use client::{Client, Response};
pub use loadgen::{LoadOptions, LoadSummary, Target};
pub use protocol::{ErrorCode, ModelSpec, NetlistFormat, ProtocolError, Request};
pub use server::{start, ServerConfig, ServerHandle};
