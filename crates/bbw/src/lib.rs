//! # nlft-bbw — the brake-by-wire case study
//!
//! The paper demonstrates light-weight NLFT on a distributed brake-by-wire
//! (BBW) architecture: a duplex central unit distributing brake force to
//! four simplex wheel nodes (Fig. 4). This crate reproduces that study
//! three ways, each validating the others:
//!
//! * [`params`] — the §3.3 parameter assignment (`λ_P`, `λ_T`, `C_D`,
//!   `P_T`, `P_OM`, `P_FS`, `μ_R`, `μ_OM`);
//! * [`analytic`] — the SHARPE-style hierarchical models of §3.2: Markov
//!   chains for the central unit (Figs 6–7) and wheel subsystem
//!   (Figs 9–11), the Fig. 8 series structure, composed through the Fig. 5
//!   fault tree; regenerates Figures 12–14;
//! * [`montecarlo`] — an independent discrete-event simulation of the
//!   joint six-node system, cross-checking the analytic curves;
//! * [`cluster`] — an *executable* BBW cluster: real TM32 control programs
//!   under the TEM kernel on a time-triggered bus with membership, duplex
//!   selection and degraded-mode force redistribution;
//! * [`recovery`] — diagnosis-and-recovery scenarios on that cluster: a
//!   masked transient storm, an intermittent wheel restarting and
//!   reintegrating, and a stuck-at CU replica being retired;
//! * [`sensor`] — triplicated pedal sensors with a deterministic
//!   value-domain fault model, median voting, plausibility checks and
//!   weakly-hard channel demotion;
//! * [`actuator`] — wheel brake actuators with stuck/runaway/offset
//!   faults and a wheel-local demand-vs-measured divergence monitor
//!   that fails a bad actuator to its safe release state;
//! * [`value_campaign`] — the value-domain storm campaign scoring
//!   braking-safety metrics under simultaneous sensor, actuator,
//!   command, network and node faults;
//! * [`braking`] — a deterministic longitudinal braking model mapping
//!   deadline-miss patterns to excess stopping distance;
//! * [`weakly_hard_campaign`] — the miss-pattern storm campaign:
//!   searches worst-case miss *patterns* per fault mix, cross-checks
//!   them against the kernel's weakly-hard analysis bound, and scores
//!   each pattern's braking-distance degradation.
//!
//! # Examples
//!
//! Reproduce the paper's headline result (Fig. 12, degraded mode):
//!
//! ```
//! use nlft_bbw::analytic::{BbwSystem, Functionality, Policy, HOURS_PER_YEAR};
//! use nlft_bbw::params::BbwParams;
//! use nlft_reliability::model::ReliabilityModel;
//!
//! let params = BbwParams::paper();
//! let fs = BbwSystem::new(&params, Policy::FailSilent, Functionality::Degraded);
//! let nlft = BbwSystem::new(&params, Policy::Nlft, Functionality::Degraded);
//! let gain = nlft.reliability(HOURS_PER_YEAR) / fs.reliability(HOURS_PER_YEAR);
//! assert!(gain > 1.4, "paper: ~55% higher reliability after one year");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actuator;
pub mod analytic;
pub mod blackout;
pub mod braking;
pub mod cluster;
pub mod cluster_campaign;
pub mod montecarlo;
pub mod params;
pub mod recovery;
pub mod scenario;
pub mod sensitivity;
pub mod sensor;
pub mod value_campaign;
pub mod weakly_hard_campaign;

pub use actuator::{ActuatorFault, ActuatorMonitor, ActuatorMonitorConfig, WheelActuator};
pub use analytic::{
    BbwSystem, Functionality, Policy, ValueDomainParams, ValueDomainSystem, HOURS_PER_YEAR,
};
pub use blackout::{
    run_blackout_campaign, BlackoutCampaignConfig, BlackoutCampaignResult, BlackoutCounts,
};
pub use braking::{BrakingScore, MissPolicy};
pub use cluster::{BbwCluster, ClusterInjection, ClusterReport, ValueDomainReport};
pub use cluster_campaign::{
    run_cluster_campaign, run_net_storm_campaign, ClusterCampaignConfig, ClusterCampaignResult,
    NetStormCampaignConfig, NetStormCampaignResult, NetStormCounts,
};
pub use montecarlo::{run_monte_carlo, MonteCarloConfig, MonteCarloResult};
pub use params::BbwParams;
pub use recovery::{
    intermittent_wheel_scenario, permanent_cu_scenario, run_recovery_cluster_campaign,
    transient_storm_scenario, RecoveryClusterCampaignConfig, RecoveryClusterOutcomes,
};
pub use scenario::{
    check_accept, compile, run_compiled, run_scenario, ClusterScenarioConfig, CompileError,
    CompiledFamily, CompiledScenario, RunError, ScenarioOutcome,
};
pub use sensor::{PedalSensorArray, PedalVoterConfig, SensorFault, PEDAL_MAX};
pub use value_campaign::{
    run_value_domain_campaign, ValueCampaignMode, ValueDomainCampaignConfig,
    ValueDomainCampaignResult,
};
pub use weakly_hard_campaign::{
    run_miss_pattern_campaign, MissPatternCampaignConfig, MissPatternCampaignResult,
    MissPatternCounts, PlacementStrategy, WorstPattern,
};
