//! # nlft — node-level fault tolerance for distributed real-time systems
//!
//! A from-scratch Rust reproduction of *“A Framework for Node-Level Fault
//! Tolerance in Distributed Real-time Systems”* (Aidemark, Folkesson,
//! Karlsson — DSN 2005): light-weight node-level fault tolerance (NLFT)
//! masks transient faults *inside* each node by temporal error masking
//! (TEM — run critical tasks twice, compare, recover with a third copy and
//! a majority vote), so the distributed system only ever sees well-behaved
//! omission or fail-silent failures.
//!
//! This facade re-exports the whole workspace:
//!
//! * [`sim`] — deterministic discrete-event substrate (clock, events, RNG
//!   streams, statistics).
//! * [`machine`] — a simulated COTS processor (TM32) with the hardware
//!   error-detection mechanisms of the paper's Table 1 and a seedable
//!   fault injector.
//! * [`kernel`] — the real-time kernel: fixed-priority scheduling, TEM,
//!   budget timers, data-integrity checks and fault-tolerant
//!   response-time analysis.
//! * [`net`] — time-triggered communication: TDMA/FlexRay-style bus,
//!   membership, duplex replication, state resynchronisation.
//! * [`core`] — the NLFT framework proper: node policies and
//!   fault-injection campaigns estimating `C_D`, `P_T`, `P_OM`, `P_FS`.
//! * [`engine`] — the fleet-scale campaign engine: a threaded trial
//!   executor with panic isolation, trial watchdogs, streaming statistics
//!   and checkpoint/resume, deterministic at any worker count.
//! * [`reliability`] — SHARPE-style analysis: Markov chains, reliability
//!   block diagrams, BDD fault trees, hierarchical composition.
//! * [`bbw`] — the brake-by-wire case study: the paper's analytic models
//!   (Figures 12–14), a Monte-Carlo cross-validation and an executable
//!   six-node cluster.
//!
//! # Examples
//!
//! Mask a transient CPU fault inside a brake controller:
//!
//! ```
//! use nlft::kernel::tem::{InjectionPlan, TemConfig, TemExecutor};
//! use nlft::machine::fault::{FaultTarget, TransientFault};
//! use nlft::machine::workloads;
//!
//! let pid = workloads::pid_controller();
//! let (_, wcet) = pid.golden_run(&[1000, 900]);
//! let tem = TemExecutor::new(TemConfig::with_budget(wcet * 2));
//! let mut machine = pid.instantiate();
//! let plan = InjectionPlan {
//!     copy: 1,
//!     at_cycle: 4,
//!     fault: TransientFault { target: FaultTarget::Sp, mask: 1 << 14 },
//! };
//! let report = tem.run_job(&mut machine, &pid, &[1000, 900], Some(plan));
//! assert!(report.outcome.delivered());
//! ```
//!
//! Reproduce the paper's headline dependability result:
//!
//! ```
//! use nlft::bbw::analytic::{BbwSystem, Functionality, Policy, HOURS_PER_YEAR};
//! use nlft::bbw::params::BbwParams;
//! use nlft::reliability::model::ReliabilityModel;
//!
//! let p = BbwParams::paper();
//! let fs = BbwSystem::new(&p, Policy::FailSilent, Functionality::Degraded);
//! let nlft = BbwSystem::new(&p, Policy::Nlft, Functionality::Degraded);
//! assert!(nlft.reliability(HOURS_PER_YEAR) > 1.4 * fs.reliability(HOURS_PER_YEAR));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use nlft_bbw as bbw;
pub use nlft_core as core;
pub use nlft_engine as engine;
pub use nlft_kernel as kernel;
pub use nlft_machine as machine;
pub use nlft_net as net;
pub use nlft_reliability as reliability;
pub use nlft_sim as sim;
