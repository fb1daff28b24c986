//! Core death inside a critical section: lock-based vs LEFT-RS.
//!
//! Three acts on the reference 2-core brake node:
//!
//! 1. *Certification* — SRP ceilings give the lock-based substrate its
//!    blocking bound, the bounded-retry analysis gives LEFT-RS its retry
//!    re-execution term, and both feed the fault-aware response-time
//!    analysis.
//! 2. *One placement* — a core crashes while holding the shared wheel
//!    state. The leaked spin lock wedges every lock-based peer; the same
//!    placement is invisible to LEFT-RS, and an escalated (orderly)
//!    silence spares even the lock-based node.
//! 3. *Campaign* — randomized core-death placements, all forced
//!    mid-critical-section, proving the contrast holds everywhere and
//!    that the measured retry cost stays within the certified term.
//!
//! ```text
//! cargo run --release --example core_death_cs [trials]
//! ```

use nlft::core::multicore_campaign::{run_multicore_campaign, MulticoreCampaignConfig};
use nlft::engine::EngineConfig;
use nlft::kernel::escalation::EscalationPolicy;
use nlft::kernel::multicore::MulticoreExecutive;
use nlft::kernel::resources::{certify, ProtocolKind};
use nlft::machine::fault::CoreDeathFault;

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);

    // Act 1: certify the reference 2-core workload under both protocols.
    let (set, map) = MulticoreExecutive::reference_workload(2);
    println!("=== Certification (reference 2-core brake node) ===");
    for kind in [ProtocolKind::LockBased, ProtocolKind::LeftRs] {
        println!("--- {} ---", kind.name());
        println!(
            "{:>12}{:>12}{:>12}{:>12}{:>12}",
            "task", "blocking", "recovery", "response", "deadline"
        );
        for cert in certify(&set, &map, kind, 2, 1) {
            let task = set.get(cert.id).expect("certified task exists");
            println!(
                "{:>12}{:>12}{:>12}{:>12}{:>12}",
                cert.name,
                format!("{}", cert.blocking),
                format!("{}", cert.recovery),
                cert.response
                    .map(|r| format!("{r}"))
                    .unwrap_or_else(|| "MISS".into()),
                format!("{}", task.deadline),
            );
        }
    }

    // Act 2: one adversarial placement, three outcomes.
    println!("\n=== One mid-section core death (core 0, tick 100) ===");
    let death = CoreDeathFault {
        core: 0,
        at_tick: 100,
        in_section: true,
        escalated: false,
    };
    for (label, kind, escalated) in [
        ("lock-based, crash", ProtocolKind::LockBased, false),
        ("LEFT-RS, crash", ProtocolKind::LeftRs, false),
        ("lock-based, escalated", ProtocolKind::LockBased, true),
    ] {
        let mut exec = MulticoreExecutive::reference(2, kind);
        if escalated {
            exec.supervise(0, EscalationPolicy::default());
        }
        exec.inject(CoreDeathFault { escalated, ..death });
        let report = exec.run(2_000);
        println!(
            "{label:>22}: missed {}, deadlocks {}, max retry cost {} -> {}",
            report.missed,
            report.deadlocks,
            report.max_retry_cost,
            if report.clean() {
                "node survives"
            } else {
                "node lost"
            },
        );
    }

    // Act 3: the campaign over randomized placements.
    println!("\n=== Core-death campaign ({trials} trials) ===");
    let config = MulticoreCampaignConfig::new(trials, 0x2005_0a08);
    let result = run_multicore_campaign(&config, &EngineConfig::all_cores());
    let c = &result.counts;
    println!(
        "crash trials          : {:>6} (lock-based broken in {}, LEFT-RS in 0)",
        c.crash, c.lock_failed_crash
    );
    println!(
        "escalated trials      : {:>6} (lock-based clean in {})",
        c.escalated, c.lock_clean_escalated
    );
    println!(
        "lock-based damage     : {:>6} deadlocks, {} misses",
        c.lock_deadlocks, c.lock_misses
    );
    println!(
        "LEFT-RS damage        : {:>6} deadlocks, {} misses ({} clean trials)",
        c.leftrs_deadlocks, c.leftrs_misses, c.leftrs_clean
    );
    println!(
        "LEFT-RS retry cost    : {:>6}us measured worst case vs {}us certified",
        result.leftrs_max_retry_cost_us, result.certified_retry_term_us
    );
    println!(
        "certified tasks       : {:>6} of {}",
        result.certified_tasks,
        result.certified_tasks + c.uncertified_tasks
    );
    assert!(
        result.claims_hold(),
        "every crash placement must break lock-based while LEFT-RS stays clean"
    );
    assert!(
        result.leftrs_max_retry_cost_us <= result.certified_retry_term_us,
        "measured retry cost must stay within the certified term"
    );
    println!("\nall claims hold: lock-free sharing survives every core-death placement");
}
