//! HALOTIS — High Accuracy LOgic TIming Simulator with inertial and
//! degradation delay model.
//!
//! This crate is the facade of the workspace reproducing the DATE 2001 paper
//! *"HALOTIS: High Accuracy LOgic TIming Simulator with inertial and
//! degradation delay model"* (Ruiz de Clavijo, Juan-Chico, Bellido, Acosta,
//! Valencia).  It re-exports the member crates under stable module names and
//! adds the [`experiments`] module, which packages every table and figure of
//! the paper's evaluation as a callable experiment.
//!
//! | Module | Contents |
//! |---|---|
//! | [`core`] | time/voltage/logic vocabulary types |
//! | [`delay`] | conventional + degradation delay models (paper eq. 1–3) |
//! | [`netlist`] | cells, synthetic 0.6 µm library, netlist builder, circuit generators |
//! | [`waveform`] | transitions, digital/analog waveforms, VCD/ASCII, comparisons |
//! | [`sim`] | the HALOTIS engine and the classical baseline simulator |
//! | [`analog`] | the reference electrical simulator (HSPICE substitute) |
//! | [`corpus`] | the deterministic benchmark corpus behind the CI golden/perf gates |
//! | [`serve`] | the simulation daemon: wire protocol, circuit cache, worker scheduler |
//! | [`experiments`] | Fig. 1/3/6/7 and Table 1/2 reproductions + extensions |
//!
//! # Quick start
//!
//! ```
//! use halotis::experiments::{multiplier_fixture, multiplier_stimulus, SEQUENCE_FIG6};
//! use halotis::sim::{CompiledCircuit, SimulationConfig};
//!
//! let fixture = multiplier_fixture();
//! let stimulus = multiplier_stimulus(&fixture.ports, SEQUENCE_FIG6);
//! let circuit = CompiledCircuit::compile(&fixture.netlist, &fixture.library)?;
//! let mut state = circuit.new_state();
//! let result = circuit.run_with(&mut state, &stimulus, &SimulationConfig::ddm())?;
//! assert!(result.stats().events_processed > 0);
//! # Ok::<(), halotis::sim::SimulationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use halotis_analog as analog;
pub use halotis_core as core;
pub use halotis_corpus as corpus;
pub use halotis_delay as delay;
pub use halotis_netlist as netlist;
pub use halotis_serve as serve;
pub use halotis_sim as sim;
pub use halotis_waveform as waveform;

pub mod experiments;
