//! # nlft-kernel — a real-time kernel with temporal error masking
//!
//! The software half of the paper's light-weight node-level fault
//! tolerance: a fixed-priority preemptive real-time kernel whose error
//! handling is *systematic* (application-independent), so the programmer
//! writes plain periodic tasks and the kernel supplies the redundancy.
//!
//! * [`task`] — task specifications, criticality-driven priorities and
//!   validated task sets.
//! * [`tem`] — temporal error masking: execute critical tasks twice,
//!   compare, recover with a third execution + 2-of-3 vote (Fig. 3).
//! * [`analysis`] — response-time analysis, its fault-tolerant extension
//!   (slack for recovery), and the TEM task transformation.
//! * [`contract`] — weakly-hard (m,k) deadline-miss contracts with
//!   online monitoring and configurable degradation actions.
//! * [`integrity`] — end-to-end message checks (§2.6): CRC-sealed
//!   messages and fresh-command acceptance.
//! * [`escalation`] — the recovery-escalation ladder: suspect → fail-silent
//!   → restart with capped exponential backoff → reintegrate or retire.
//! * [`resources`] — SRP ceiling analysis over declared resource-access
//!   sets, the SRP blocking bound, and fault-tolerant resource-sharing
//!   protocols (lock-based baseline vs LEFT-RS lock-free retry-bounded).
//! * [`multicore`] — an N-core partitioned fixed-priority executive with
//!   ceiling-boosted critical sections and core-death fault injection; at
//!   one core it is the plain preemptive dispatcher whose simulated
//!   response times validate the analysis empirically.
//! * [`preemptive`] — several MMU-confined tasks co-resident on one CPU
//!   under fixed-priority preemptive dispatch (§2.8).
//!
//! The node-level strategies of §2.2 (mask errors in critical tasks, shut
//! down a non-critical task, silence the node on a kernel error) are not
//! an executive here: `nlft_core::campaign` applies them per fault-injection
//! trial and `nlft_core::policy` maps each outcome to the node boundary.
//!
//! # Examples
//!
//! Run a TEM-protected brake controller and mask an injected PC fault:
//!
//! ```
//! use nlft_kernel::tem::{InjectionPlan, TemConfig, TemExecutor};
//! use nlft_machine::fault::{FaultTarget, TransientFault};
//! use nlft_machine::workloads;
//!
//! let pid = workloads::pid_controller();
//! let (_, wcet) = pid.golden_run(&[1000, 900]);
//! let tem = TemExecutor::new(TemConfig::with_budget(wcet * 2));
//! let mut machine = pid.instantiate();
//! let plan = InjectionPlan {
//!     copy: 0,
//!     at_cycle: 5,
//!     fault: TransientFault { target: FaultTarget::Pc, mask: 1 << 20 },
//! };
//! let report = tem.run_job(&mut machine, &pid, &[1000, 900], Some(plan));
//! assert!(report.outcome.delivered(), "the transient was masked");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod contract;
pub mod escalation;
pub mod integrity;
pub mod multicore;
pub mod preemptive;
pub mod resources;
pub mod task;
pub mod tem;

pub use analysis::{analyse, analyse_with_faults, TemCosts};
pub use contract::{ContractOutcomes, DegradationAction, MkContract};
pub use escalation::{
    EscalationEvent, EscalationMachine, EscalationPolicy, NodeHealth, RestartPolicy,
};
pub use multicore::{MulticoreExecutive, MulticoreReport, TaskCoreOutcome};
pub use preemptive::{PreemptiveExecutive, PreemptiveReport, ResidentTask};
pub use resources::{
    certify, left_rs_retry_term, CertifiedTask, CsAccess, LeftRs, LockBased, ProtocolKind,
    ResourceId, ResourceMap, ResourceProtocol, SectionCommit, SectionEntry,
};
pub use task::{Criticality, Priority, TaskId, TaskSet, TaskSpec, TaskSpecBuilder};
pub use tem::{InjectionPlan, JobFault, JobOutcome, JobReport, TemConfig, TemExecutor};
