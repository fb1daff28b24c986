//! # nlft-core — the node-level fault tolerance framework
//!
//! The primary contribution of the reproduced paper, as a library: node
//! configurations (fail-silent vs light-weight NLFT, simplex vs duplex),
//! the classification of fault effects into node-boundary failure modes
//! (masked / omission / fail-silent / undetected), and the fault-injection
//! campaign machinery that estimates the dependability parameters
//! (`C_D`, `P_T`, `P_OM`, `P_FS`) the system-level reliability models
//! consume.
//!
//! * [`policy`] — node policies and failure-mode classification (§2.2,
//!   §3.2.1 of the paper);
//! * [`campaign`] — deterministic, parallelisable fault-injection
//!   campaigns over the simulated machine + kernel stack;
//! * [`diagnosis`] — α-count fault discrimination (transient /
//!   intermittent / permanent) and the per-node supervisor that drives
//!   the kernel's recovery-escalation ladder.
//! * [`multicore_campaign`] — the core-death campaign: lock-based vs
//!   LEFT-RS resource sharing on a multicore node under adversarial
//!   in-critical-section core-death placement.
//!
//! # Examples
//!
//! Estimate the paper's parameters for an NLFT node:
//!
//! ```
//! use nlft_core::campaign::{run_campaign, CampaignConfig};
//! use nlft_core::policy::NodePolicy;
//! use nlft_engine::EngineConfig;
//!
//! let config = CampaignConfig::new(200, 42, NodePolicy::LightweightNlft);
//! let result = run_campaign(&config, &EngineConfig::default());
//! assert_eq!(result.counts.trials, 200);
//! let p_t = result.counts.p_t().estimate();
//! assert!(p_t > 0.5, "TEM masks the majority of detected transients");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod diagnosis;
pub mod multicore_campaign;
pub mod policy;

pub use campaign::{
    run_campaign, run_recovery_campaign, CampaignConfig, CampaignResult, RecoveryCampaignConfig,
    RecoveryCampaignResult,
};
pub use diagnosis::{
    escalation_chain, AlphaCount, AlphaCountConfig, Diagnosis, EscalationChain, NodeSupervisor,
    FALSE_RETIREMENT_BOUND,
};
pub use multicore_campaign::{
    run_multicore_campaign, MulticoreCampaignConfig, MulticoreCampaignResult,
};
pub use policy::NodePolicy;
