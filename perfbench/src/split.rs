//! The estimated layer split of one cluster trial.
//!
//! Each layer's share is its unit cost (from the traced probes) times
//! the calls one trial makes, which the cluster's fixed structure gives:
//! per build, 2 golden runs and 6 machine instantiations; per cycle, 6
//! TEM jobs of two copies and one 6-slot bus cycle. The cluster time is
//! the measured trial wall time minus the engine's measured per-trial
//! overhead; `bbw` gets what the other layers leave of it. These are
//! estimates: a unit cost is measured on a probe, not inside the trial.

/// Golden runs per `BbwCluster` build (one per workload).
pub const GOLDEN_RUNS_PER_BUILD: f64 = 2.0;
/// Machine instantiations per `BbwCluster` build (one per node).
pub const INSTANTIATIONS_PER_BUILD: f64 = 6.0;
/// TEM jobs per cluster cycle (one per node).
pub const JOBS_PER_CYCLE: f64 = 6.0;

/// Unit costs in microseconds, each from one probe.
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    /// One `BbwCluster::with_rng`.
    pub build_us: f64,
    /// One workload golden run.
    pub golden_run_us: f64,
    /// One machine instantiation.
    pub instantiate_us: f64,
    /// One clean TEM job (two copies), averaged over the cluster's jobs.
    pub tem_job_us: f64,
    /// The interpreter's part of one clean TEM job: both copies'
    /// instructions at the warm interpreter rate.
    pub machine_job_us: f64,
    /// One 6-slot bus cycle without faults.
    pub bus_cycle_us: f64,
    /// One 6-slot bus cycle under a storm injector.
    pub bus_cycle_storm_us: f64,
    /// The engine's fixed cost per trial at one worker.
    pub engine_trial_us: f64,
}

/// One scenario's share of a workload round.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioLoad {
    /// Trials the scenario ran.
    pub trials: f64,
    /// Measured wall time per trial at one worker.
    pub trial_us: f64,
    /// Cluster cycles per trial.
    pub cycles: f64,
    /// Whether the scenario attaches network faults to the bus.
    pub storm: bool,
}

/// Fractions of one trial's wall time; they sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Split {
    /// Cluster construction outside its machine calls.
    pub build: f64,
    /// The interpreter: golden runs, instantiations, TEM copies.
    pub machine: f64,
    /// TEM outside the interpreter: snapshot, compare, vote.
    pub kernel: f64,
    /// The TDMA bus and its CRC.
    pub net: f64,
    /// The rest of the cluster time: value-domain logic and wiring.
    pub bbw: f64,
    /// Trial wall time outside the cluster.
    pub engine: f64,
}

/// The trial-weighted split over `loads`; `None` without any trial time.
pub fn split(costs: &UnitCosts, loads: &[ScenarioLoad]) -> Option<Split> {
    let mut wall = 0.0;
    let mut builds = 0.0;
    let mut cycles = 0.0;
    let mut net = 0.0;
    for l in loads {
        wall += l.trials * l.trial_us;
        builds += l.trials;
        cycles += l.trials * l.cycles;
        let bus = if l.storm {
            costs.bus_cycle_storm_us
        } else {
            costs.bus_cycle_us
        };
        net += l.trials * l.cycles * bus;
    }
    if wall <= 0.0 {
        return None;
    }
    let build_machine = costs.golden_run_us * GOLDEN_RUNS_PER_BUILD
        + costs.instantiate_us * INSTANTIATIONS_PER_BUILD;
    let job_machine = costs.machine_job_us * JOBS_PER_CYCLE;
    let job_kernel = (costs.tem_job_us - costs.machine_job_us) * JOBS_PER_CYCLE;

    let engine = builds * costs.engine_trial_us;
    let build = builds * (costs.build_us - build_machine);
    let machine = builds * build_machine + cycles * job_machine;
    let kernel = cycles * job_kernel;
    let cluster = wall - engine;
    let bbw = cluster - builds * costs.build_us - cycles * (job_machine + job_kernel) - net;
    Some(Split {
        build: build / wall,
        machine: machine / wall,
        kernel: kernel / wall,
        net: net / wall,
        bbw: bbw / wall,
        engine: engine / wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> UnitCosts {
        UnitCosts {
            build_us: 100.0,
            golden_run_us: 5.0,
            instantiate_us: 10.0,
            tem_job_us: 4.0,
            machine_job_us: 3.0,
            bus_cycle_us: 2.0,
            bus_cycle_storm_us: 6.0,
            engine_trial_us: 1.0,
        }
    }

    #[test]
    fn one_scenario_by_hand() {
        // 10 cycles: machine 70 (build) + 180 (jobs), kernel 60, net 20,
        // build 100 - 70 = 30, engine 1, bbw the rest of 1000.
        let load = ScenarioLoad {
            trials: 4.0,
            trial_us: 1000.0,
            cycles: 10.0,
            storm: false,
        };
        let s = split(&costs(), &[load]).unwrap();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(s.build, 0.030), "{s:?}");
        assert!(close(s.machine, 0.250), "{s:?}");
        assert!(close(s.kernel, 0.060), "{s:?}");
        assert!(close(s.net, 0.020), "{s:?}");
        assert!(close(s.engine, 0.001), "{s:?}");
        assert!(
            close(s.bbw, 1.0 - 0.030 - 0.250 - 0.060 - 0.020 - 0.001),
            "{s:?}"
        );
    }

    #[test]
    fn shares_are_trial_weighted_and_sum_to_one() {
        let loads = [
            ScenarioLoad {
                trials: 3.0,
                trial_us: 800.0,
                cycles: 20.0,
                storm: true,
            },
            ScenarioLoad {
                trials: 1.0,
                trial_us: 2000.0,
                cycles: 40.0,
                storm: false,
            },
        ];
        let s = split(&costs(), &loads).unwrap();
        let sum = s.build + s.machine + s.kernel + s.net + s.bbw + s.engine;
        assert!((sum - 1.0).abs() < 1e-12, "{s:?}");
        // net: 3 x 20 x 6 + 1 x 40 x 2 = 440 of 4400.
        assert!((s.net - 0.1).abs() < 1e-12, "{s:?}");
    }

    #[test]
    fn no_trial_time_gives_no_split() {
        assert_eq!(split(&costs(), &[]), None);
    }
}
