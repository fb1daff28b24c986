//! Weakly-hard (m,k) contracts end to end: analyse, enforce, storm.
//!
//! Three acts:
//!
//! 1. offline analysis — sweep the fault inter-arrival time and ask the
//!    fault-recovery RTA which (m,k) contracts the brake controller can
//!    be *certified* for, printing the worst tolerated miss pattern per
//!    interval;
//! 2. online enforcement — register a contract with the preemptive
//!    executive and watch the degradation actions fire: skip-to-safe
//!    substitution healing the window, and escalation reporting;
//! 3. a miss-pattern storm campaign — random, bursty, periodic and
//!    adversarial fault placements against the analyzer's bound, each
//!    pattern scored as braking-distance degradation. The campaign
//!    must never beat a certified bound — and must reach it.
//!
//! ```text
//! cargo run --release --example weakly_hard_storm [trials]
//! ```

use nlft::bbw::braking::MissPolicy;
use nlft::bbw::{run_miss_pattern_campaign, MissPatternCampaignConfig};
use nlft::engine::EngineConfig;
use nlft::kernel::analysis::{analyse_weakly_hard, TemCosts};
use nlft::kernel::contract::{DegradationAction, MkContract};
use nlft::kernel::preemptive::{PreemptiveExecutive, ResidentTask};
use nlft::kernel::task::{Criticality, Priority, TaskId, TaskSet, TaskSpecBuilder};
use nlft::sim::time::SimDuration;

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

fn pattern_string(pattern: &[bool]) -> String {
    pattern.iter().map(|&m| if m { '#' } else { '.' }).collect()
}

fn bits_string(bits: u64, len: u32) -> String {
    (0..len)
        .map(|j| if bits >> j & 1 == 1 { '#' } else { '.' })
        .collect()
}

fn act_one() {
    println!("=== act 1: certify (m,k) contracts under fault-recovery RTA ===");
    let set: TaskSet = [TaskSpecBuilder::new(TaskId(1), "brake-ctl")
        .period(us(100))
        .deadline(us(80))
        .wcet(us(30))
        .priority(Priority(0))
        .criticality(Criticality::Critical)
        .build()
        .unwrap()]
    .into_iter()
    .collect();
    let contract = MkContract::new(2, 8);
    println!(
        "task brake-ctl: T=100us D=80us C=30us, contract ({},{})",
        2, 8
    );
    for tf in [45u64, 55, 65, 80, 120] {
        let b =
            &analyse_weakly_hard(&set, &[(TaskId(1), contract)], us(tf), &TemCosts::nominal())[0];
        println!(
            "  T_F {tf:>3}us  tolerates {} fault/job  worst window {} ({})  {}",
            b.tolerated_faults.unwrap(),
            b.worst_misses,
            pattern_string(&b.worst_pattern),
            if b.satisfied { "CERTIFIED" } else { "refused" },
        );
    }
    println!();
}

fn counting_task(iters: u32) -> String {
    format!(
        "    ldi r0, 0
             ldi r1, {iters}
             ldi r2, 1
         loop:
             add r0, r0, r2
             sub r1, r1, r2
             jnz loop
             out r0, port0
             halt"
    )
}

fn act_two() {
    println!("=== act 2: online enforcement in the preemptive executive ===");
    // A task whose budget is far below its demand: every executed job
    // overruns its execution-time monitor and misses.
    let mut exec = PreemptiveExecutive::new(1);
    exec.add_task(
        ResidentTask {
            id: TaskId(1),
            name: "lame".into(),
            period_cycles: 1_000,
            deadline_cycles: 1_000,
            budget_cycles: 30,
            priority: Priority(0),
            inputs: vec![],
            output_port: 0,
            critical: false,
        },
        &counting_task(100),
    )
    .unwrap();
    exec.register_contract(
        TaskId(1),
        MkContract::new(1, 4),
        DegradationAction::SkipToSafe,
    );
    let report = exec.run(16_000);
    let s = &report.tasks[&TaskId(1)];
    let c = &report.contracts[&TaskId(1)];
    println!(
        "  contract (1,4) + SkipToSafe: {} jobs, {} overruns, {} safe substitutions",
        c.jobs, s.overruns, s.safe_substituted
    );
    println!(
        "  {} violations, worst window {} misses, min margin {}",
        c.violations, c.worst_misses_in_window, c.min_margin
    );
    println!("  -> degraded releases never occupied the CPU; the window healed each time\n");
}

fn act_three(trials: u64) {
    println!("=== act 3: miss-pattern storm campaign ({trials} trials) ===");
    let cfg = MissPatternCampaignConfig::nominal(trials, 0x3A5E);
    let r = run_miss_pattern_campaign(&cfg, &EngineConfig::default());
    let c = &r.counts;
    println!(
        "  certified trials: {}/{} (violations of certified bounds: {})",
        c.certified, c.trials, c.certified_violations
    );
    println!(
        "  bound breaches: {}   bound reached exactly: {} trials",
        c.bound_breaches, c.bound_reached
    );
    println!(
        "  total misses {}   worst window {} misses   uncertified violations {}",
        c.total_misses, c.worst_window_misses, c.violating
    );
    if let Some(w) = r.worst {
        println!(
            "  worst pattern (trial {}, T_F {}us, {:?}):",
            w.trial, w.fault_interval_us, w.strategy
        );
        println!("    {}", bits_string(w.pattern_bits, cfg.horizon_jobs));
        if w.score.stopped {
            println!(
                "    braking: {} -> {} distance units (+{} ppm), {} -> {} cycles",
                w.score.clean_distance,
                w.score.distance,
                w.score.excess_ppm(),
                w.score.clean_stop_cycles,
                w.score.stop_cycles,
            );
        } else {
            println!(
                "    braking: NEVER STOPPED within {} cycles (clean twin: {} cycles)",
                w.score.stop_cycles, w.score.clean_stop_cycles
            );
        }
    }
    assert_eq!(c.certified_violations, 0, "analyzer must stay sound");
    assert_eq!(c.bound_breaches, 0, "no placement may beat the bound");
    // Comparing policies: the hold-last-safe window is worth distance.
    let mut zero_cfg = cfg.clone();
    zero_cfg.policy = MissPolicy::ZeroForce;
    let zero = run_miss_pattern_campaign(&zero_cfg, &EngineConfig::default());
    println!(
        "  hold-last-safe vs release-to-zero: {} vs {} total excess distance",
        c.total_excess_distance, zero.counts.total_excess_distance
    );
}

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(60);
    act_one();
    act_two();
    act_three(trials);
    println!("\nweakly-hard storm complete: analysis certified, enforcement degraded, campaign cross-checked.");
}
