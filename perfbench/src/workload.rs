//! The three workloads, drawn from the scenario zoo's own files.

use std::path::Path;

use nlft_bbw::scenario::compile;
use nlft_reliability::scenario::{parse_scenario, FamilyParams, FaultLine, ScenarioSpec};

use crate::stats::derive_seed;
use crate::trace::Tracer;

/// One workload: which zoo files it runs and how it scales them.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Zoo file stems, without `.scn`.
    pub files: &'static [&'static str],
    /// Each scaled campaign runs `factor` times the scenario's own trials.
    pub factor: u64,
    /// Distinct one-trial replay inputs, rotating over the scenarios; at
    /// least 200, so ten samples lie beyond the p95.
    pub replays: usize,
    /// Each timed round replays one of this many interleaved slices of
    /// the inputs.
    pub replay_slices: usize,
}

/// The 18 zoo scenarios whose family builds the six-node `BbwCluster`.
pub const CLUSTER_ZOO: Workload = Workload {
    name: "cluster-zoo",
    files: &[
        "babbling-wheel",
        "blackout-during-storm",
        "cascading-wheel-loss",
        "clock-glitch-storm",
        "dual-core-ride-through",
        "emi-burst-under-braking",
        "intermittent-wheel-probation",
        "masquerading-cu",
        "runaway-actuator-trip",
        "sensor-drift-fleet",
        "silent-cu-failover",
        "stuck-at-cu-retirement",
        "net-storm-nominal",
        "value-combined-storm",
        "value-single-fault-coverage",
        "full-blackout-coldstart",
        "staggered-partial-blackout",
        "recovery-ladder-mix",
    ],
    factor: 2,
    replays: 216,
    replay_slices: 2,
};

/// Single-node SWIFI and core-death trials: a fresh machine per trial.
pub const NODE_LEVEL: Workload = Workload {
    name: "node-level",
    files: &[
        "node-nlft-reference",
        "node-failsilent-reference",
        "core-death-mid-section",
    ],
    factor: 2,
    replays: 2100,
    replay_slices: 6,
};

/// Weakly-hard miss-pattern trials of a few microseconds each.
pub const WEAKLY_HARD: Workload = Workload {
    name: "weakly-hard",
    files: &["weakly-hard-nominal-storm", "contract-margin-exhaustion"],
    factor: 100,
    replays: 21000,
    replay_slices: 1,
};

/// Every workload, in reporting order.
pub const ALL: [Workload; 3] = [CLUSTER_ZOO, NODE_LEVEL, WEAKLY_HARD];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

/// A workload's scenarios, read, parsed and compiled.
pub fn load(zoo: &Path, workload: &Workload, tr: &mut Tracer) -> Result<Vec<ScenarioSpec>, String> {
    workload
        .files
        .iter()
        .map(|stem| {
            let path = zoo.join(format!("{stem}.scn"));
            let source = tr
                .span("read", 1, |_| std::fs::read_to_string(&path))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let spec = tr
                .span("parse", 1, |_| parse_scenario(&source))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            tr.span("compile", 1, |_| compile(&spec, 1))
                .map_err(|e| e.to_string())?;
            if spec.name != *stem {
                return Err(format!(
                    "{}: declares scenario `{}`",
                    path.display(),
                    spec.name
                ));
            }
            Ok(spec)
        })
        .collect()
}

/// The scaled campaign of `spec` under workload seed `seed`: `factor`
/// times its trials on a derived seed, with no acceptance clause.
pub fn scaled(spec: &ScenarioSpec, factor: u64, seed: u64) -> ScenarioSpec {
    let mut s = spec.clone();
    s.trials = spec.trials * factor;
    s.seed = derive_seed(seed, &spec.name, 0);
    s.accept = Default::default();
    s
}

/// Replay `index` of the workload: one trial of a scenario chosen by
/// rotation, on a derived seed.
pub fn replay(specs: &[ScenarioSpec], seed: u64, index: u64) -> ScenarioSpec {
    let spec = &specs[(index % specs.len() as u64) as usize];
    let mut s = spec.clone();
    s.trials = 1;
    s.seed = derive_seed(seed, &spec.name, index + 1);
    s.accept = Default::default();
    s
}

/// Cluster cycles per trial and whether network faults are attached,
/// for scenarios whose family builds a `BbwCluster`.
pub fn cluster_shape(spec: &ScenarioSpec) -> Option<(u32, bool)> {
    Some(match &spec.params {
        FamilyParams::NetStorm { cycles, .. } => (*cycles, true),
        FamilyParams::ValueDomain {
            cycles,
            combined,
            net_intensity,
        } => (*cycles, *combined && *net_intensity > 0.0),
        FamilyParams::Blackout {
            warmup, recovery, ..
        } => (warmup + recovery, true),
        FamilyParams::Recovery { cycles } => (*cycles, false),
        FamilyParams::Cluster(c) => (
            c.cycles,
            c.faults.iter().any(|f| {
                matches!(
                    f,
                    FaultLine::Storm { .. }
                        | FaultLine::Rates { .. }
                        | FaultLine::Dynamic { .. }
                        | FaultLine::Blackout { .. }
                )
            }),
        ),
        FamilyParams::WeaklyHard { .. }
        | FamilyParams::Multicore { .. }
        | FamilyParams::Node { .. } => return None,
    })
}
