//! Property-based tests for the brake-by-wire models: the paper's
//! qualitative orderings must hold over the whole parameter space, not
//! just at the §3.3 point — and the value-domain layers must mask or
//! detect *every* single injected fault, not just the hand-picked ones.

use nlft_bbw::actuator::{ActuatorFault, ActuatorMonitor, ActuatorMonitorConfig, WheelActuator};
use nlft_bbw::analytic::{BbwSystem, Functionality, Policy};
use nlft_bbw::cluster::BbwCluster;
use nlft_bbw::montecarlo::{run_monte_carlo, MonteCarloConfig};
use nlft_bbw::params::BbwParams;
use nlft_bbw::sensor::{PedalSensorArray, PedalVoterConfig, SensorFault, PEDAL_MAX};
use nlft_bbw::value_campaign::{run_value_domain_campaign, ValueDomainCampaignConfig};
use nlft_engine::EngineConfig;
use nlft_reliability::model::ReliabilityModel;
use nlft_sim::rng::RngStream;
use nlft_testkit::prop::Suite;
use nlft_testkit::rng::TkRng;
use nlft_testkit::{prop_assert, prop_assert_eq, prop_assume};

const SUITE: Suite = Suite::new(0x5EED_00BB).cases(48);

fn arb_params(r: &mut TkRng) -> BbwParams {
    let lp = r.f64_range(1e-7, 1e-4); // lambda_p
    let ratio = r.f64_range(1.0, 100.0); // transient/permanent ratio
    let cov = r.f64_range(0.5, 1.0); // coverage
    let a = r.f64_range(0.0, 1.0); // p_t raw
    let b = r.f64_range(0.0, 1.0); // p_om raw (normalised below)
    let mu_r = r.f64_range(10.0, 1e4);
    let mu_om = r.f64_range(10.0, 1e4);
    // Normalise the split (p_t, p_om, p_fs) from two raw draws.
    let total = a + b + 0.05;
    let mut p = BbwParams::paper();
    p.lambda_p = lp;
    p.lambda_t = lp * ratio;
    p.coverage = cov;
    p.p_t = a / total;
    p.p_om = b / total;
    p.p_fs = 0.05 / total;
    p.mu_r = mu_r;
    p.mu_om = mu_om;
    p
}

/// System reliability is a valid, non-increasing function of time for
/// any parameters.
#[test]
fn reliability_valid_and_monotone() {
    SUITE.check(
        "reliability_valid_and_monotone",
        |r: &mut TkRng| (arb_params(r), r.range(0, 2) as u8, r.range(0, 2) as u8),
        |(params, policy, func)| {
            prop_assume!(params.validate().is_ok());
            let policy = if *policy == 0 {
                Policy::FailSilent
            } else {
                Policy::Nlft
            };
            let func = if *func == 0 {
                Functionality::Full
            } else {
                Functionality::Degraded
            };
            let sys = BbwSystem::new(params, policy, func);
            let mut last = 1.0f64;
            for i in 0..12 {
                let r = sys.reliability(i as f64 * 800.0);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&r));
                prop_assert!(r <= last + 1e-9, "R increased: {last} -> {r}");
                last = r;
            }
            Ok(())
        },
    );
}

/// NLFT nodes never hurt: for any parameters, the NLFT system is at
/// least as reliable as the FS system in the same mode.
#[test]
fn nlft_never_worse_than_fs() {
    SUITE.check(
        "nlft_never_worse_than_fs",
        |r: &mut TkRng| {
            (
                arb_params(r),
                r.range(0, 2) as u8,
                r.f64_range(10.0, 9000.0),
            )
        },
        |(params, func, t)| {
            prop_assume!(params.validate().is_ok());
            // The paper's premise (§3.2): an omission window is at most as
            // long as a full restart. When omission recovery is *slower*
            // than a restart, an NLFT node lingers longer in the vulnerable
            // one-node-short state than an FS node would, and the ordering
            // genuinely inverts — that regime is outside the claim.
            prop_assume!(params.mu_om >= params.mu_r);
            let t = *t;
            let func = if *func == 0 {
                Functionality::Full
            } else {
                Functionality::Degraded
            };
            let fs = BbwSystem::new(params, Policy::FailSilent, func);
            let nlft = BbwSystem::new(params, Policy::Nlft, func);
            prop_assert!(
                nlft.reliability(t) >= fs.reliability(t) - 1e-9,
                "NLFT {} < FS {} at t={t}",
                nlft.reliability(t),
                fs.reliability(t)
            );
            Ok(())
        },
    );
}

/// Degraded functionality never hurts either.
#[test]
fn degraded_never_worse_than_full() {
    SUITE.check(
        "degraded_never_worse_than_full",
        |r: &mut TkRng| {
            (
                arb_params(r),
                r.range(0, 2) as u8,
                r.f64_range(10.0, 9000.0),
            )
        },
        |(params, policy, t)| {
            prop_assume!(params.validate().is_ok());
            let t = *t;
            let policy = if *policy == 0 {
                Policy::FailSilent
            } else {
                Policy::Nlft
            };
            let full = BbwSystem::new(params, policy, Functionality::Full);
            let degraded = BbwSystem::new(params, policy, Functionality::Degraded);
            prop_assert!(degraded.reliability(t) >= full.reliability(t) - 1e-9);
            Ok(())
        },
    );
}

/// Better coverage never hurts.
#[test]
fn coverage_monotonicity() {
    SUITE.check(
        "coverage_monotonicity",
        |r: &mut TkRng| {
            (
                arb_params(r),
                r.f64_range(10.0, 9000.0),
                r.f64_range(0.001, 0.2),
            )
        },
        |(params, t, delta)| {
            prop_assume!(params.validate().is_ok());
            let t = *t;
            let low = *params;
            let mut high = *params;
            high.coverage = (params.coverage + delta).min(1.0);
            prop_assume!(high.validate().is_ok());
            let sys_low = BbwSystem::new(&low, Policy::Nlft, Functionality::Degraded);
            let sys_high = BbwSystem::new(&high, Policy::Nlft, Functionality::Degraded);
            prop_assert!(sys_high.reliability(t) >= sys_low.reliability(t) - 1e-9);
            Ok(())
        },
    );
}

/// Subsystem product law holds everywhere (independence composition).
#[test]
fn system_is_product_of_subsystems() {
    SUITE.check(
        "system_is_product_of_subsystems",
        |r: &mut TkRng| (arb_params(r), r.f64_range(0.0, 9000.0)),
        |(params, t)| {
            prop_assume!(params.validate().is_ok());
            let t = *t;
            let sys = BbwSystem::new(params, Policy::Nlft, Functionality::Degraded);
            let product = sys.central_unit().reliability(t) * sys.wheel_subsystem().reliability(t);
            prop_assert!((sys.reliability(t) - product).abs() < 1e-9);
            Ok(())
        },
    );
}

/// Draws one arbitrary sensor fault, wider than the campaign's ranges.
fn arb_sensor_fault(r: &mut TkRng) -> SensorFault {
    match r.range(0, 4) {
        0 => SensorFault::StuckAt(r.range(0, u64::from(PEDAL_MAX) + 1) as u32),
        1 => {
            let magnitude = r.range(1, 4000) as i64;
            SensorFault::Offset(if r.bool() { magnitude } else { -magnitude })
        }
        2 => SensorFault::Drift {
            per_cycle: r.range(1, 300) as i64,
        },
        _ => SensorFault::NoiseBurst {
            amplitude: r.range(1, 4000) as u32,
            cycles: r.range(1, 20) as u32,
        },
    }
}

/// An out-of-range pedal value never panics anything and is never
/// silent: the voted value stays in range and the boundary clamp raises
/// a flag the moment the physical value leaves `[0, PEDAL_MAX]`.
#[test]
fn out_of_range_pedal_is_clamped_and_flagged_never_panics() {
    Suite::new(0x5EED_0A11).cases(400).check(
        "out_of_range_pedal_is_clamped_and_flagged_never_panics",
        |r: &mut TkRng| {
            let truths: Vec<u32> = (0..24)
                .map(|_| {
                    if r.bool() {
                        r.range(0, u64::from(PEDAL_MAX) + 1) as u32
                    } else {
                        // Broken linkage / EMI: far outside the physical range.
                        r.range(u64::from(PEDAL_MAX) + 1, 4_000_000_000) as u32
                    }
                })
                .collect();
            let fault = if r.bool() {
                Some((
                    r.usize_range(0, 3),
                    arb_sensor_fault(r),
                    r.range(0, 12) as u32,
                ))
            } else {
                None
            };
            (truths, fault, r.next_u64())
        },
        |(truths, fault, seed)| {
            let mut array =
                PedalSensorArray::new(PedalVoterConfig::default(), RngStream::new(*seed).fork("p"));
            if let Some((channel, fault, onset)) = fault {
                array.attach_fault(*channel, *fault, *onset);
            }
            for (cycle, &truth) in truths.iter().enumerate() {
                let s = array.sample(cycle as u32, truth);
                prop_assert!(s.voted <= PEDAL_MAX, "voted {} out of range", s.voted);
                prop_assert!(
                    truth <= PEDAL_MAX || s.clamped,
                    "truth {truth} out of range but no clamp flag at cycle {cycle}"
                );
            }
            Ok(())
        },
    );
}

/// Coverage claim, sensor half: *any* single-channel fault is masked by
/// the median vote or detected by plausibility/demotion — the array
/// never delivers a silently wrong pedal value.
#[test]
fn any_single_sensor_fault_is_masked_or_detected() {
    Suite::new(0x5EED_0512).cases(5000).check(
        "any_single_sensor_fault_is_masked_or_detected",
        |r: &mut TkRng| {
            let start = r.range(0, 1000) as u32;
            let slope = r.range(0, 200) as u32;
            let cap = r.range(1000, u64::from(PEDAL_MAX) + 1) as u32;
            let channel = r.usize_range(0, 3);
            let onset = r.range(0, 20) as u32;
            (
                start,
                slope,
                cap,
                channel,
                arb_sensor_fault(r),
                onset,
                r.next_u64(),
            )
        },
        |&(start, slope, cap, channel, fault, onset, seed)| {
            let mut array =
                PedalSensorArray::new(PedalVoterConfig::default(), RngStream::new(seed).fork("p"));
            array.attach_fault(channel, fault, onset);
            for cycle in 0..48u32 {
                let truth = (start + slope * cycle).min(cap);
                let s = array.sample(cycle, truth);
                prop_assert!(s.voted <= PEDAL_MAX);
            }
            prop_assert_eq!(
                array.stats().undetected_error_cycles,
                0,
                "silent sensing failure under {:?} on channel {} at onset {}",
                fault,
                channel,
                onset
            );
            Ok(())
        },
    );
}

/// Coverage claim, actuator half: *any* single actuator fault is masked
/// (its force error stays within the monitor's tolerance) or detected
/// (the monitor trips within its m-in-k window) — a large error never
/// persists past the window with the monitor silent.
#[test]
fn any_single_actuator_fault_is_masked_or_detected() {
    Suite::new(0x5EED_0AC2).cases(5000).check(
        "any_single_actuator_fault_is_masked_or_detected",
        |r: &mut TkRng| {
            let start = r.range(0, 500) as u32;
            let slope = r.range(20, 80) as u32;
            let cap = r.range(1500, 3800) as u32;
            let fault = match r.range(0, 3) {
                0 => ActuatorFault::Stuck,
                1 => ActuatorFault::Runaway {
                    step: r.range(50, 800) as u32,
                },
                _ => {
                    let magnitude = r.range(20, 500) as i64;
                    ActuatorFault::Offset(if r.bool() { magnitude } else { -magnitude })
                }
            };
            (start, slope, cap, fault, r.range(0, 24) as u32)
        },
        |&(start, slope, cap, fault, onset)| {
            let config = ActuatorMonitorConfig::default();
            let mut act = WheelActuator::new();
            act.attach_fault(fault, onset);
            let mut mon = ActuatorMonitor::new(config);
            let mut overrun_streak = 0u32;
            for cycle in 0..60u32 {
                let demand = (start + slope * cycle).min(cap);
                let measured = act.apply(cycle, demand);
                let verdict = mon.observe(demand, measured);
                // Mirror the cluster's silent-failure accounting: with
                // the fault active and the monitor untripped, a force
                // error above tolerance must not persist beyond the
                // monitor's own window.
                let error = measured.abs_diff(demand);
                if cycle >= onset && !verdict.tripped && error > config.tolerance {
                    overrun_streak += 1;
                    prop_assert!(
                        overrun_streak <= config.window_cycles,
                        "silent actuator failure: {fault:?} at onset {onset}, demand \
                         {demand}, measured {measured}, streak {overrun_streak}"
                    );
                } else {
                    overrun_streak = 0;
                }
            }
            Ok(())
        },
    );
}

/// The end-to-end version on the executable cluster: a wildly
/// out-of-range pedal profile never panics the loop, the clamp is
/// reported, and the wheel forces stay inside the physical range.
#[test]
fn cluster_survives_out_of_range_pedal_profiles() {
    Suite::new(0x5EED_0C15).cases(8).check(
        "cluster_survives_out_of_range_pedal_profiles",
        |r: &mut TkRng| {
            (
                r.range(u64::from(PEDAL_MAX) + 1, 1_000_000_000) as u32,
                r.range(0, 100_000) as u32,
            )
        },
        |&(base, slope)| {
            let mut cluster = BbwCluster::new();
            let report = cluster.run(16, move |c| base.saturating_add(slope * c));
            prop_assert!(
                report.value.pedal_clamped_cycles > 0,
                "clamp must be visible"
            );
            for record in &report.records {
                for force in record.wheel_force.iter().flatten() {
                    prop_assert!(*force <= PEDAL_MAX, "force {force} out of range");
                }
            }
            Ok(())
        },
    );
}

/// System-level coverage claim for arbitrary seeds (the lib test pins
/// one seed; this sweeps them): a single value-domain fault per trial is
/// never silent and never costs braking service.
#[test]
fn single_fault_campaigns_have_no_silent_failures_for_any_seed() {
    Suite::new(0x5EED_0CA3).cases(10).check(
        "single_fault_campaigns_have_no_silent_failures_for_any_seed",
        |r: &mut TkRng| r.next_u64(),
        |&seed| {
            let mut cfg = ValueDomainCampaignConfig::single_fault(6, seed);
            cfg.cycles = 20;
            let result = run_value_domain_campaign(&cfg, &EngineConfig::default());
            prop_assert_eq!(result.undetected, 0, "silent trial under seed {}", seed);
            prop_assert_eq!(result.service_lost, 0);
            prop_assert_eq!(result.undetected_value_failures, 0);
            Ok(())
        },
    );
}

/// Monte-Carlo is deterministic in the seed and thread-count invariant
/// for arbitrary seeds.
#[test]
fn montecarlo_thread_invariance() {
    SUITE.check(
        "montecarlo_thread_invariance",
        |r: &mut TkRng| r.next_u64(),
        |&seed| {
            let mut cfg =
                MonteCarloConfig::one_year(Policy::Nlft, Functionality::Degraded, 150, seed);
            cfg.grid_hours = vec![4_000.0, 8_760.0];
            let seq = run_monte_carlo(&cfg, &EngineConfig::default());
            let par = run_monte_carlo(&cfg, &EngineConfig::with_workers(3));
            prop_assert_eq!(seq.failures, par.failures);
            prop_assert_eq!(seq.reliability(), par.reliability());
            Ok(())
        },
    );
}
