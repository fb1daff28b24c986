//! # nlft-reliability — SHARPE-style dependability analysis
//!
//! The paper evaluates its brake-by-wire architecture with the SHARPE tool:
//! hierarchical models where a fault tree's basic events are Markov chains
//! and reliability block diagrams. This crate reimplements that analysis
//! pipeline from scratch:
//!
//! * [`linalg`] — dense matrices, LU solves and the Padé-13 matrix
//!   exponential (the paper's models are stiff: repairs ~10³/h against
//!   faults ~10⁻⁴/h over one-year horizons);
//! * [`ctmc`] — continuous-time Markov chains: transient solutions (matrix
//!   exponential, cross-checked by uniformization) and MTTF;
//! * [`dtmc`] — absorbing discrete-time chains: expected steps to
//!   absorption and finite-horizon absorption probabilities, used to
//!   validate the kernel's recovery-escalation ladder against campaigns;
//! * [`model`] — the common `R(t)` interface, exponential components and
//!   CTMC adapters, plus numeric MTTF integration;
//! * [`rbd`] — series / parallel / k-of-n reliability block diagrams;
//! * [`faulttree`] — AND/OR/k-of-n fault trees with exact BDD evaluation
//!   (shared events handled correctly) and hierarchical composition;
//! * [`scenario`] — the declarative fault-campaign DSL: one plain-text
//!   file per scenario (topology, fault plan, contracts, acceptance
//!   clause), parsed into a typed [`scenario::ScenarioSpec`].
//!
//! # Examples
//!
//! A duplex subsystem in series with a simplex one (miniature Fig. 5):
//!
//! ```
//! use nlft_reliability::model::{Exponential, ReliabilityModel};
//! use nlft_reliability::rbd::Block;
//!
//! let node = Block::component(Exponential::new(2.0e-4));
//! let duplex = Block::parallel(vec![node.clone(), node.clone()]);
//! let system = Block::series(vec![duplex, node]);
//! let r = system.reliability(8_760.0);
//! assert!(r > 0.0 && r < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctmc;
pub mod dtmc;
pub mod faulttree;
pub mod lang;
pub mod linalg;
pub mod model;
pub mod rbd;
pub mod scenario;
mod syntax;

pub use ctmc::{Ctmc, CtmcBuilder, CtmcError, StateId};
pub use dtmc::{AbsorbingDtmc, DtmcError};
pub use faulttree::{EventId, FaultTree, FaultTreeBuilder, HierarchicalTree};
pub use lang::{parse, ModelSet};
pub use linalg::{LinalgError, Matrix};
pub use model::{mttf_numeric, CoveredModel, CtmcReliability, Exponential, ReliabilityModel};
pub use rbd::Block;
pub use syntax::ParseError;
