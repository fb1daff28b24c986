//! Adversarial network fault storm against the executable BBW cluster.
//!
//! Two acts:
//!
//! 1. a targeted storm — wheel 3's network interface drops and corrupts
//!    frames for twenty cycles; membership excludes the wheel, the central
//!    unit redistributes brake force, and once the storm quiesces the
//!    wheel is readmitted. Braking never stops.
//! 2. a cluster-wide campaign — every node takes a configurable storm of
//!    corruption, omission, crash/restart, babbling-idiot, masquerade and
//!    clock-glitch faults, optionally with a CPU transient riding along.
//!    The campaign reports the outcome distribution and the *measured*
//!    bus-level coverage parameters (CRC reject rate, guardian block
//!    rate, masquerade reject rate) plus reintegration latency
//!    percentiles.
//!
//! ```text
//! cargo run --release --example net_fault_storm [trials]
//! ```

use nlft::bbw::cluster::{BbwCluster, WHEELS};
use nlft::bbw::{run_net_storm_campaign, NetStormCampaignConfig};
use nlft::engine::EngineConfig;
use nlft::net::inject::{NetFaultPlan, NetFaultRates};
use nlft::sim::rng::RngStream;

fn act_one() {
    println!("=== act 1: targeted storm on wheel 3, then quiescence ===");
    let mut cluster = BbwCluster::new();
    let storm = NetFaultPlan::quiet()
        .with_node(
            WHEELS[2],
            NetFaultRates {
                omission: 0.9,
                corruption: 0.5,
                ..NetFaultRates::QUIET
            },
        )
        .with_dynamic(0.1, 0.1);
    cluster.attach_net_faults(storm, RngStream::new(0x5702_0a11).fork("net-injector"));

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
        println!(
            "cycle {:>2}  forces [{}]  members {}{}",
            r.cycle,
            forces.join(" "),
            r.members,
            if r.degraded { "  DEGRADED" } else { "" },
        );
    }
    println!(
        "storm phase: degraded cycles {}, min members {}, service lost: {}",
        report.degraded_cycles, report.min_members, report.service_lost
    );
    println!(
        "bus saw: {} corruptions (all {} CRC-rejected), {} omission events",
        report.corruptions_applied, report.crc_rejects, report.omissions
    );
    assert!(!report.service_lost && !report.split_membership);

    // The storm passes; the wheel resumes transmitting and is readmitted.
    cluster.set_net_fault_plan(NetFaultPlan::quiet());
    let calm = cluster.run(10, |_| 1200);
    println!(
        "calm phase: reintegration latencies {:?} cycles, degraded cycles {}",
        calm.reintegration_latencies, calm.degraded_cycles
    );
    assert!(!calm.service_lost);
}

fn act_two(trials: u64) {
    println!("\n=== act 2: cluster-wide storm campaign ({trials} trials) ===");
    let config = NetStormCampaignConfig::new(trials, 0x5702_2005);
    let result = run_net_storm_campaign(&config, &EngineConfig::all_cores());

    let o = &result.counts;
    let pct = |n: u64| 100.0 * n as f64 / o.trials as f64;
    println!("outcomes:");
    println!(
        "  unaffected        {:>6} ({:>5.1}%)",
        o.unaffected,
        pct(o.unaffected)
    );
    println!(
        "  omission only     {:>6} ({:>5.1}%)",
        o.omission_only,
        pct(o.omission_only)
    );
    println!(
        "  degraded episode  {:>6} ({:>5.1}%)",
        o.degraded_episode,
        pct(o.degraded_episode)
    );
    println!(
        "  service lost      {:>6} ({:>5.1}%)",
        o.service_lost,
        pct(o.service_lost)
    );
    println!(
        "  split membership  {:>6} ({:>5.1}%)",
        o.split_membership,
        pct(o.split_membership)
    );

    println!(
        "injected: {} corruptions, {} omissions, {} crashes, {} babbles, \
         {} masquerades, {} clock glitches, {} dups, {} reorders",
        result.injected.corruptions,
        result.injected.omissions,
        result.injected.crashes,
        result.injected.babbles,
        result.injected.masquerades,
        result.injected.duplicates,
        result.injected.clock_glitches,
        result.injected.reorders,
    );
    println!("measured coverage parameters:");
    println!("  CRC reject rate        {:.4}", result.crc_reject_rate());
    println!(
        "  guardian block rate    {:.4}",
        result.guardian_block_rate()
    );
    println!(
        "  masquerade reject rate {:.4}",
        result.masquerade_reject_rate()
    );
    println!(
        "reintegration latency: p50 {:?} p95 {:?} cycles ({} reintegrations)",
        result.reintegration_percentile(50),
        result.reintegration_percentile(95),
        result.reintegration_latencies.len()
    );

    assert!((result.crc_reject_rate() - 1.0).abs() < f64::EPSILON);
    assert!((result.guardian_block_rate() - 1.0).abs() < f64::EPSILON);
    println!(
        "\nstorms that split the cluster (<= 3 of 6 members): {} of {} trials",
        o.split_membership, o.trials
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
