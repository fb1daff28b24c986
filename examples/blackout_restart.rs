//! Cluster blackout and TTP/C-style cold-start restart of the BBW
//! cluster.
//!
//! Two acts:
//!
//! 1. a deterministic total blackout — every node (both central units
//!    included) resets in the same slot and loses its volatile state.
//!    The cluster falls completely silent, the fastest listener wins the
//!    cold-start contention, everyone integrates on its time base, and
//!    the membership view is whole again within a provable bound. The
//!    per-cycle trace shows the collapse and the recovery.
//! 2. a blackout-survival campaign — each trial resets a random subset
//!    of 2–6 nodes with per-node power-up stagger. The campaign reports
//!    recovery fraction, cold-start/big-bang/clique-revert counts and
//!    the braking-unavailability and membership-recovery distributions.
//!
//! ```text
//! cargo run --release --example blackout_restart [trials]
//! ```

use nlft::bbw::blackout::{run_blackout_campaign, BlackoutCampaignConfig};
use nlft::bbw::cluster::{BbwCluster, CU_A, CU_B, WHEELS};
use nlft::engine::EngineConfig;
use nlft::net::inject::{BlackoutSpec, NetFaultPlan};
use nlft::sim::rng::RngStream;

fn act_one() {
    println!("=== act 1: total blackout at cycle 6, cold-start recovery ===");
    let mut cluster = BbwCluster::new();
    cluster.enable_startup();
    let plan = NetFaultPlan::quiet().with_blackout(BlackoutSpec {
        at_cycle: 6,
        nodes: vec![CU_A, CU_B, WHEELS[0], WHEELS[1], WHEELS[2], WHEELS[3]],
        down_cycles: 2,
        stagger: 0,
    });
    cluster.attach_net_faults(plan, RngStream::new(0xB1AC_0A11).fork("net-injector"));

    let report = cluster.run(20, |_| 1200);
    for r in &report.records {
        let forces: Vec<String> = r
            .wheel_force
            .iter()
            .map(|f| {
                f.map(|v| format!("{v:>4}"))
                    .unwrap_or_else(|| "   -".into())
            })
            .collect();
        let milestones: Vec<String> = report
            .startup_events
            .iter()
            .filter(|(c, _)| *c == r.cycle)
            .map(|(_, ev)| format!("{ev:?}"))
            .collect();
        println!(
            "cycle {:>2}  forces [{}]  members {}  {}",
            r.cycle,
            forces.join(" "),
            r.members,
            milestones.join(" "),
        );
    }
    let metrics = cluster.startup_metrics().expect("startup enabled");
    println!(
        "first winning cold-start frame: cycle {:?}; integration latencies {:?}",
        metrics.first_cold_start_cycle,
        metrics
            .integration_latencies
            .iter()
            .map(|&(_, l)| l)
            .collect::<Vec<_>>()
    );
    assert_eq!(metrics.big_bangs, 0, "unique timeouts cannot collide");
    assert_eq!(
        report.guardian_blocks, 0,
        "startup silence is protocol-enforced, never guardian-enforced"
    );
    assert_eq!(
        report.records.last().expect("ran").members,
        6,
        "the cluster must be whole again"
    );
}

fn act_two(trials: u64) {
    println!("\n=== act 2: blackout-survival campaign ({trials} trials) ===");
    let config = BlackoutCampaignConfig::new(trials, 0xB1AC_2005);
    let result = run_blackout_campaign(&config, &EngineConfig::all_cores());
    let c = &result.counts;

    println!(
        "recovered to full membership: {} of {} trials ({:.1}%)",
        c.full_recoveries,
        c.trials,
        100.0 * result.recovery_fraction()
    );
    println!(
        "cold-start contentions: {} trials, {} marker frames, {} big-bang rounds",
        c.cold_start_trials, c.cold_starts_sent, c.big_bangs
    );
    println!(
        "clique reverts: {} (guardian blocks: {} — reverted nodes never babble)",
        c.clique_reverts, c.guardian_blocks
    );
    println!(
        "membership recovery: p50 {:?} p95 {:?} cycles after the blackout",
        result.membership_percentile(50),
        result.membership_percentile(95)
    );
    println!(
        "braking unavailability per trial (cycles with < 3 wheels braking): {:?}",
        result.unavailability_cycles
    );
    println!(
        "hold-last-safe bridged {} command-dark cycles; mean reset->Active \
         latency {:.2} cycles",
        c.held_setpoint_cycles,
        result.integration_latency_mean()
    );

    assert_eq!(
        c.guardian_blocks, 0,
        "clique avoidance must never degenerate into babbling"
    );
    assert_eq!(
        c.full_recoveries, c.trials,
        "every blackout in this regime must be survivable"
    );
}

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    act_one();
    act_two(trials);
}
