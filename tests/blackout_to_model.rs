//! Integration: cluster cold-start after a total blackout, analytically
//! and by simulation. The startup protocol's deterministic worst case —
//! every node reset in the same slot, zero stagger — is unfolded into a
//! linear absorbing DTMC (`cold_start_chain`) and solved with the
//! reliability crate's fundamental-matrix machinery; the blackout
//! campaign then measures the same quantity — cycles from reset to
//! Active — on the executed six-node cluster. The two routes are derived
//! independently (phase arithmetic vs. a cycle-driven state machine fed
//! by real bus deliveries) and must agree exactly.

use nlft::bbw::blackout::{run_blackout_campaign, BlackoutCampaignConfig};
use nlft::engine::EngineConfig;
use nlft::net::startup::{cold_start_chain, BASE_LISTEN_TIMEOUT};
use nlft::reliability::dtmc::AbsorbingDtmc;

#[test]
fn analytic_cold_start_latency_matches_the_simulated_blackout() {
    // Simulated side: the deterministic full blackout. All six nodes
    // reset together, the slot-0 node has the shortest listen timeout
    // and always wins the contention, and — because the whole cluster
    // marches through the same phases — every node integrates with the
    // winner's latency.
    let config = BlackoutCampaignConfig::full_blackout(4, 0xB1AC_2005);
    let result = run_blackout_campaign(&config, &EngineConfig::default());
    assert_eq!(result.counts.full_recoveries, result.counts.trials);
    assert!(!result.integration_latencies.is_empty());

    // Analytic side: `down_cycles` powered-down states, the winner's
    // listen window, one contention cycle, and two integration cycles —
    // the marker cycle brings only the winner back on the bus, its first
    // set-point cycle has two senders, and the cycle after that all six,
    // which is the first majority anyone can hear.
    let (matrix, start, absorbing) = cold_start_chain(config.down_cycles, BASE_LISTEN_TIMEOUT, 2);
    let dtmc = AbsorbingDtmc::new(matrix, &absorbing).expect("cold-start chain is absorbing");
    let analytic = dtmc
        .expected_steps_to_absorption(start)
        .expect("Active is reachable");

    let simulated = result.integration_latency_mean();
    assert!(
        (analytic - simulated).abs() < 1e-9,
        "analytic {analytic} cycles vs simulated {simulated} cycles"
    );
    // The scenario is fully deterministic, so not just the mean but every
    // single latency must sit on the analytic value.
    assert!(
        result
            .integration_latencies
            .iter()
            .all(|&l| f64::from(l) == analytic),
        "latency spread in a deterministic blackout: {:?}",
        result.integration_latencies
    );
}

#[test]
fn cold_start_absorbs_exactly_on_schedule() {
    // Deterministic chain: zero probability of being Active one cycle
    // early, certainty at the expected step.
    let (matrix, start, absorbing) = cold_start_chain(2, BASE_LISTEN_TIMEOUT, 2);
    let dtmc = AbsorbingDtmc::new(matrix, &absorbing).unwrap();
    let steps = dtmc.expected_steps_to_absorption(start).unwrap().round() as u32;
    let before = dtmc
        .absorption_probability(start, steps - 1, &absorbing)
        .unwrap();
    let at = dtmc
        .absorption_probability(start, steps, &absorbing)
        .unwrap();
    assert!(before < 1e-12, "active early: {before}");
    assert!((at - 1.0).abs() < 1e-12, "not active on schedule: {at}");
}

#[test]
fn cold_start_latency_stretches_with_outage_depth() {
    let steps = |down: u32, timeout: u32| {
        let (matrix, start, absorbing) = cold_start_chain(down, timeout, 2);
        AbsorbingDtmc::new(matrix, &absorbing)
            .unwrap()
            .expected_steps_to_absorption(start)
            .unwrap()
    };
    // One extra powered-down cycle or one extra listen cycle each cost
    // exactly one cycle of integration latency — the chain is linear.
    assert_eq!(
        steps(3, BASE_LISTEN_TIMEOUT) - steps(2, BASE_LISTEN_TIMEOUT),
        1.0
    );
    assert_eq!(
        steps(2, BASE_LISTEN_TIMEOUT + 3) - steps(2, BASE_LISTEN_TIMEOUT),
        3.0
    );
}
