//! Value-domain storm campaigns over the executable BBW cluster.
//!
//! The node- and network-level campaigns ask *does the cluster still
//! brake*; this campaign asks *does it brake correctly*. Every trial
//! injects value-domain faults — pedal-sensor channels lying, wheel
//! actuators misbehaving, wheel-local command corruption past the bus
//! CRC — optionally on top of a network storm and a machine-level
//! transient, and scores the run against a fault-free twin on
//! braking-safety metrics:
//!
//! * **worst total-force deficit** — the largest per-cycle shortfall of
//!   summed wheel force against the clean reference;
//! * **worst left/right imbalance** — the largest per-cycle asymmetry
//!   between the left and right wheel pairs (a yaw-moment hazard the
//!   total cannot see);
//! * **stale/seal command rejects and held cycles** — how often the
//!   end-to-end checks fired and the hold-last-safe window bridged them;
//! * **undetected value failures** — faults that were neither masked
//!   nor detected by any layer. For single-fault trials this must be
//!   zero: that is the value-domain coverage claim, and the campaign
//!   measures it instead of assuming it.
//!
//! Like every campaign in this workspace the run is deterministic in
//! the seed and invariant in the thread count: each trial forks its
//! stream from `(seed, trial index)`, shard results merge by sums and
//! maxima, and the golden test pins the exact outcome at 1/2/5 threads.

use nlft_engine::Tally;
use nlft_machine::fault::FaultSpace;
use nlft_net::inject::{NetFaultPlan, NetFaultRates};
use nlft_sim::rng::RngStream;

use crate::actuator::ActuatorFault;
use crate::cluster::{
    check_run_cycles, BbwCluster, ClusterInjection, ClusterReport, CU_A, CU_B, WHEELS,
};
use crate::sensor::{SensorFault, PEDAL_MAX};

/// What each trial injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueCampaignMode {
    /// Exactly one value-domain fault per trial (a sensor fault, an
    /// actuator fault, or a command fault) and nothing else — the
    /// coverage-measurement mode.
    SingleFault,
    /// One fault of *every* value-domain kind per trial, on top of a
    /// network storm and a machine-level transient — the stress mode.
    CombinedStorm,
}

/// Configuration of a value-domain campaign.
#[derive(Debug, Clone)]
pub struct ValueDomainCampaignConfig {
    /// Number of independent cluster runs.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Communication cycles per run.
    pub cycles: u32,
    /// Worker threads; results are identical for any value.
    pub threads: usize,
    /// What to inject per trial.
    pub mode: ValueCampaignMode,
    /// Network storm intensity in `[0, 1]` (combined mode only).
    pub net_intensity: f64,
}

impl ValueDomainCampaignConfig {
    /// A single-fault coverage campaign.
    pub fn single_fault(trials: u64, seed: u64) -> Self {
        ValueDomainCampaignConfig {
            trials,
            seed,
            cycles: 30,
            threads: 1,
            mode: ValueCampaignMode::SingleFault,
            net_intensity: 0.0,
        }
    }

    /// A combined sensor + actuator + command + network + node storm.
    pub fn combined_storm(trials: u64, seed: u64) -> Self {
        ValueDomainCampaignConfig {
            trials,
            seed,
            cycles: 30,
            threads: 1,
            mode: ValueCampaignMode::CombinedStorm,
            net_intensity: 0.2,
        }
    }

    /// Checks that the campaign can run: trials, `8..=MAX_CYCLES` cycles
    /// (the fault onsets are drawn from `2..cycles / 2`), and a network
    /// intensity in `[0, 1]`.
    pub fn check(&self) -> Result<(), String> {
        if self.trials == 0 {
            return Err("need trials".into());
        }
        if self.cycles < 8 {
            return Err("value_domain needs at least 8 cycles for its onset windows".into());
        }
        check_run_cycles("value_domain", u64::from(self.cycles))?;
        if !(0.0..=1.0).contains(&self.net_intensity) {
            return Err("net_intensity must be in [0, 1]".into());
        }
        Ok(())
    }
}

nlft_engine::tally! {
    /// Everything a value-domain campaign measures. Each trial gets
    /// exactly one verdict, most severe first: `undetected` beats
    /// `service_lost` beats `detected` beats `masked`.
    pub struct ValueDomainCampaignResult: "value-domain-counts" {
        verdicts {
            /// At least one silent value failure — a fault neither
            /// masked nor detected. The headline coverage number: must be
            /// zero for single-fault campaigns.
            undetected,
            /// Braking service lost (everything was detected, but too
            /// much of the cluster went down).
            service_lost,
            /// Some detection layer fired (flag, demotion, reject, trip,
            /// or a membership exclusion) and service survived.
            detected,
            /// The fault left no externally visible trace at all.
            masked,
        }
        metrics {
            /// Largest per-cycle total-force shortfall vs the clean twin,
            /// over all trials (force counts).
            worst_total_force_deficit: max,
            /// Largest per-cycle left/right wheel-pair asymmetry, over
            /// all trials (force counts).
            worst_left_right_imbalance: max,
            /// Commands rejected as stale / duplicated / too old.
            stale_rejects,
            /// Commands rejected by the application-level seal.
            seal_rejects,
            /// Cycles wheels braked on a held last-safe set-point.
            held_setpoint_cycles,
            /// Pedal channels demoted by the weakly-hard window.
            sensor_demotions,
            /// Actuator monitors tripped (actuator failed to safe
            /// release).
            actuator_trips,
            /// Silent value failures summed over all trials.
            undetected_value_failures,
        }
    }
}

impl ValueDomainCampaignResult {
    /// Measured value-domain detection coverage: the fraction of trials
    /// whose faults were masked or detected rather than silent. This is
    /// the `c_v` parameter the extended fault tree takes as input.
    pub fn detection_coverage(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        1.0 - self.undetected as f64 / self.trials as f64
    }
}

/// The campaign's pedal profile: a deterministic ramp whose slew stays
/// inside the voter's rate bound, so a healthy run raises no flags.
pub fn campaign_pedal(cycle: u32) -> u32 {
    (400 + 60 * cycle).min(3500)
}

/// Per-cycle clean-twin reference: `(total force, |left − right|)`,
/// absent where the clean run has no force data yet (pipeline fill).
fn clean_reference(cycles: u32) -> Vec<Option<(u32, u32)>> {
    let mut cluster = BbwCluster::new();
    let report = cluster.run(cycles, campaign_pedal);
    report.records.iter().map(force_metrics).collect()
}

/// Total force and left/right asymmetry of one cycle record, when all
/// wheels reported. Wheels are FL/FR/RL/RR, so left = 0 + 2, right =
/// 1 + 3.
fn force_metrics(record: &crate::cluster::CycleRecord) -> Option<(u32, u32)> {
    let f: Vec<u32> = record.wheel_force.iter().map(|w| w.unwrap_or(0)).collect();
    if record.wheel_force.iter().all(|w| w.is_none()) {
        return None;
    }
    let left = f[0] + f[2];
    let right = f[1] + f[3];
    Some((left + right, left.abs_diff(right)))
}

/// Draws one pedal-sensor fault.
fn draw_sensor_fault(rng: &mut RngStream, cycles: u32) -> (usize, SensorFault, u32) {
    let channel = rng.uniform_range(0, 3) as usize;
    let onset = rng.uniform_range(2, u64::from(cycles / 2)) as u32;
    let fault = match rng.uniform_range(0, 4) {
        0 => SensorFault::StuckAt(rng.uniform_range(0, u64::from(PEDAL_MAX) + 1) as u32),
        1 => {
            let magnitude = rng.uniform_range(400, 2000) as i64;
            let sign = if rng.uniform_range(0, 2) == 0 { 1 } else { -1 };
            SensorFault::Offset(sign * magnitude)
        }
        2 => SensorFault::Drift {
            per_cycle: rng.uniform_range(30, 120) as i64,
        },
        _ => SensorFault::NoiseBurst {
            amplitude: rng.uniform_range(600, 3000) as u32,
            cycles: rng.uniform_range(2, 10) as u32,
        },
    };
    (channel, fault, onset)
}

/// Draws one actuator fault.
fn draw_actuator_fault(rng: &mut RngStream, cycles: u32) -> (usize, ActuatorFault, u32) {
    let wheel = rng.uniform_range(0, 4) as usize;
    let onset = rng.uniform_range(2, u64::from(cycles / 2)) as u32;
    let fault = match rng.uniform_range(0, 3) {
        0 => ActuatorFault::Stuck,
        1 => ActuatorFault::Runaway {
            step: rng.uniform_range(200, 600) as u32,
        },
        _ => {
            let magnitude = rng.uniform_range(100, 300) as i64;
            let sign = if rng.uniform_range(0, 2) == 0 { 1 } else { -1 };
            ActuatorFault::Offset(sign * magnitude)
        }
    };
    (wheel, fault, onset)
}

/// Schedules one wheel-local command fault on the cluster.
fn draw_command_fault(rng: &mut RngStream, cluster: &mut BbwCluster, cycles: u32) {
    let wheel = rng.uniform_range(0, 4) as usize;
    if rng.uniform_range(0, 2) == 0 {
        let cycle = rng.uniform_range(1, u64::from(cycles) - 1) as u32;
        let word = rng.uniform_range(0, 6) as usize;
        let mask = 1u32 << rng.uniform_range(0, 32);
        cluster.corrupt_command_at_wheel(cycle, wheel, word, mask);
    } else {
        let cycle = rng.uniform_range(2, u64::from(cycles) - 1) as u32;
        cluster.replay_command_at_wheel(cycle, wheel);
    }
}

const ALL_NODES: [nlft_net::frame::NodeId; 6] =
    [CU_A, CU_B, WHEELS[0], WHEELS[1], WHEELS[2], WHEELS[3]];

/// Runs the value-domain campaign. Deterministic in the seed and
/// invariant in the thread count.
///
/// # Panics
///
/// Panics if [`ValueDomainCampaignConfig::check`] rejects the config.
pub fn run_value_domain_campaign(config: &ValueDomainCampaignConfig) -> ValueDomainCampaignResult {
    config.check().unwrap_or_else(|e| panic!("{e}"));
    let clean = clean_reference(config.cycles);
    let c = config.clone();
    let root = RngStream::new(config.seed);
    let campaign = nlft_engine::indexed_campaign(
        "bbw-value-domain",
        "value-trial",
        config.trials,
        ValueDomainCampaignResult::default,
        move |trial, _ctx, result: &mut ValueDomainCampaignResult| {
            run_value_trial(&c, &clean, &root, trial, result);
        },
        |into, from| into.merge(&from),
    );
    let engine = nlft_engine::EngineConfig::with_workers(config.threads.max(1));
    nlft_engine::run_trials(campaign, &engine).acc
}

fn run_value_trial(
    config: &ValueDomainCampaignConfig,
    clean: &[Option<(u32, u32)>],
    root: &RngStream,
    trial: u64,
    result: &mut ValueDomainCampaignResult,
) {
    let mut rng = root.fork_indexed("value-trial", trial);
    let mut cluster = BbwCluster::with_rng(rng.fork("pedal-sensors"));
    match config.mode {
        ValueCampaignMode::SingleFault => match rng.uniform_range(0, 3) {
            0 => {
                let (ch, fault, onset) = draw_sensor_fault(&mut rng, config.cycles);
                cluster.attach_sensor_fault(ch, fault, onset);
            }
            1 => {
                let (wheel, fault, onset) = draw_actuator_fault(&mut rng, config.cycles);
                cluster.attach_actuator_fault(wheel, fault, onset);
            }
            _ => draw_command_fault(&mut rng, &mut cluster, config.cycles),
        },
        ValueCampaignMode::CombinedStorm => {
            let (ch, fault, onset) = draw_sensor_fault(&mut rng, config.cycles);
            cluster.attach_sensor_fault(ch, fault, onset);
            let (wheel, fault, onset) = draw_actuator_fault(&mut rng, config.cycles);
            cluster.attach_actuator_fault(wheel, fault, onset);
            draw_command_fault(&mut rng, &mut cluster, config.cycles);
            if config.net_intensity > 0.0 {
                let plan = NetFaultPlan::quiet()
                    .with_nodes(&ALL_NODES, NetFaultRates::storm(config.net_intensity));
                cluster.attach_net_faults(plan, rng.fork("net-injector"));
            }
            let node = ALL_NODES[rng.uniform_range(0, ALL_NODES.len() as u64) as usize];
            let cycle = rng.uniform_range(1, u64::from(config.cycles) - 1) as u32;
            cluster.inject(ClusterInjection {
                cycle,
                node,
                copy: rng.uniform_range(0, 2) as u32,
                at_cycle: rng.uniform_range(1, 40),
                fault: FaultSpace::cpu_only().sample(&mut rng),
            });
        }
    }
    let report = cluster.run(config.cycles, campaign_pedal);
    score_trial(result, clean, &report);
}

fn score_trial(
    result: &mut ValueDomainCampaignResult,
    clean: &[Option<(u32, u32)>],
    report: &ClusterReport,
) {
    result.trials += 1;
    let v = &report.value;
    let undetected = u64::from(v.undetected_value_failures());
    result.undetected_value_failures += undetected;
    result.stale_rejects += u64::from(v.stale_rejects);
    result.seal_rejects += u64::from(v.seal_rejects);
    result.held_setpoint_cycles += u64::from(v.held_setpoint_cycles);
    result.sensor_demotions += u64::from(v.sensor_demotions);
    result.actuator_trips += v.actuator_trips.len() as u64;

    // Braking-safety metrics against the clean twin, cycle by cycle.
    for (record, reference) in report.records.iter().zip(clean.iter()) {
        let Some((clean_total, _)) = reference else {
            continue;
        };
        let (total, imbalance) = force_metrics(record).unwrap_or((0, 0));
        result.worst_total_force_deficit = result
            .worst_total_force_deficit
            .max(u64::from(clean_total.saturating_sub(total)));
        result.worst_left_right_imbalance =
            result.worst_left_right_imbalance.max(u64::from(imbalance));
    }

    let detection_fired = v.sensor_implausible_flags > 0
        || v.sensor_demotions > 0
        || v.command_rejects > 0
        || !v.actuator_trips.is_empty()
        || v.pedal_clamped_cycles > 0
        || report.degraded_cycles > 0
        || report.omissions > 0
        || report.crc_rejects > 0;
    if undetected > 0 {
        result.undetected += 1;
    } else if report.service_lost {
        result.service_lost += 1;
    } else if detection_fired {
        result.detected += 1;
    } else {
        result.masked += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fault_campaign_has_zero_silent_failures() {
        let cfg = ValueDomainCampaignConfig::single_fault(40, 0x7A1E);
        let r = run_value_domain_campaign(&cfg);
        assert_eq!(r.trials, 40);
        assert_eq!(
            r.undetected, 0,
            "every single value fault must be masked or detected: {r:?}"
        );
        assert_eq!(r.undetected_value_failures, 0);
        assert!(
            r.service_lost == 0,
            "one value fault must never take the brakes out: {r:?}"
        );
    }

    #[test]
    fn campaign_identical_across_thread_counts() {
        let mut cfg = ValueDomainCampaignConfig::combined_storm(12, 0x5AFE);
        cfg.cycles = 24;
        cfg.threads = 1;
        let one = run_value_domain_campaign(&cfg);
        cfg.threads = 2;
        let two = run_value_domain_campaign(&cfg);
        cfg.threads = 5;
        let five = run_value_domain_campaign(&cfg);
        assert_eq!(one, two, "2 threads diverged from 1");
        assert_eq!(one, five, "5 threads diverged from 1");
        // Golden pin: any change to fork labels, draw order, the sealed
        // command format or the cluster's cycle structure shows up here.
        assert_eq!(
            (
                one.trials,
                one.undetected,
                one.service_lost,
                one.detected,
                one.masked
            ),
            (12, 0, 5, 7, 0),
            "golden outcome distribution moved: {one:?}"
        );
        assert_eq!(
            (
                one.worst_total_force_deficit,
                one.worst_left_right_imbalance
            ),
            (1134, 1637),
            "golden braking-safety metrics moved: {one:?}"
        );
        assert_eq!(
            (
                one.stale_rejects,
                one.seal_rejects,
                one.held_setpoint_cycles
            ),
            (4, 8, 39),
            "golden command-path counters moved: {one:?}"
        );
        assert_eq!((one.sensor_demotions, one.actuator_trips), (10, 12));
        assert_eq!(one.undetected_value_failures, 0);
    }

    #[test]
    fn combined_storm_keeps_metrics_bounded() {
        let cfg = ValueDomainCampaignConfig::combined_storm(10, 0xB0DE);
        let r = run_value_domain_campaign(&cfg);
        // Bounded-degradation claim: even with a sensor fault, an
        // actuator fault, a command fault, a network storm and a CPU
        // transient per trial, the deficit cannot exceed the clean
        // twin's full braking force, and the asymmetry cannot exceed
        // twice it (redistribution may concentrate the whole demand on
        // one side, and the PID overshoots transiently when its scaled
        // set-point jumps).
        let clean_max_total: u32 = {
            let mut c = BbwCluster::new();
            let rep = c.run(cfg.cycles, campaign_pedal);
            rep.records
                .iter()
                .filter_map(force_metrics)
                .map(|(t, _)| t)
                .max()
                .unwrap()
        };
        assert!(r.worst_total_force_deficit <= u64::from(clean_max_total));
        assert!(r.worst_left_right_imbalance <= 2 * u64::from(clean_max_total));
        assert!(r.trials == 10);
    }
}
