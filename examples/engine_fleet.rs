//! Fleet-scale Monte-Carlo on the campaign engine: flat memory and
//! checkpoint/resume at millions of trials.
//!
//! Runs the brake-by-wire reliability campaign through the
//! threaded executor with streaming aggregation: every trial folds
//! into an O(grid)-sized accumulator, so resident memory stays flat no
//! matter how many trials run. Along the way the engine emits resumable
//! checkpoints; the example then restarts from the last one and shows
//! the resumed run reproducing the uninterrupted result bit-for-bit.
//!
//! ```text
//! cargo run --release --example engine_fleet [replications]
//! ```
//!
//! The EXPERIMENTS.md fleet recipe uses `10000000` (10M trials).

use nlft::bbw::analytic::{Functionality, Policy};
use nlft::bbw::montecarlo::{run_monte_carlo_with, MonteCarloConfig, MonteCarloResult};
use nlft::engine::checkpoint;
use nlft::engine::{CampaignOptions, EngineConfig, ResumePoint};
use std::cell::RefCell;

/// Reads a `VmRSS`/`VmHWM`-style line from `/proc/self/status`, in KiB.
/// Returns `None` off Linux — the example then skips the memory column.
fn proc_status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn main() {
    let replications: u64 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    let cfg =
        MonteCarloConfig::one_year(Policy::Nlft, Functionality::Degraded, replications, 0xF1EE7);

    let engine = EngineConfig {
        // Eight checkpoints over the run, at least one even when the
        // smoke harness passes a tiny count.
        checkpoint_every: (replications / 8).max(1),
        ..EngineConfig::all_cores()
    };
    let workers = engine.workers;

    // At every checkpoint: encode a resumable snapshot and sample
    // resident memory. The snapshots are O(grid) — a survival curve,
    // two counters — never O(trials).
    let trail: RefCell<Vec<(u64, String, Option<u64>)>> = RefCell::new(Vec::new());
    let on_checkpoint = |done: u64, acc: &MonteCarloResult| {
        let point = ResumePoint {
            trials_done: done,
            acc: acc.clone(),
        };
        trail
            .borrow_mut()
            .push((done, checkpoint::encode(&point), proc_status_kib("VmRSS:")));
    };

    println!("=== fleet run: {replications} trials on {workers} workers ===");
    let run = run_monte_carlo_with(
        &cfg,
        &engine,
        CampaignOptions {
            resume: None,
            on_checkpoint: Some(&on_checkpoint),
        },
    );
    let full = run.acc;
    println!(
        "failures {} / {}  (empirical one-year reliability {:.6})",
        full.failures,
        replications,
        1.0 - full.failures as f64 / replications as f64
    );
    println!(
        "engine: {} blocks, pending-block high-water {} (O(workers))",
        run.report.blocks, run.report.max_pending_blocks
    );

    let trail = trail.into_inner();
    println!("\ncheckpoints ({}):", trail.len());
    for (done, encoded, rss) in &trail {
        match rss {
            Some(kib) => println!(
                "  trial {done:>10}  snapshot {:>4} bytes  VmRSS {kib} KiB",
                encoded.len()
            ),
            None => println!("  trial {done:>10}  snapshot {:>4} bytes", encoded.len()),
        }
    }
    if let Some(hwm) = proc_status_kib("VmHWM:") {
        println!("peak resident memory (VmHWM): {hwm} KiB");
    }

    // Restart from the last mid-run checkpoint: the engine re-runs only
    // the remaining suffix, and the labelled-RNG-per-trial rule makes
    // the merged result identical to the uninterrupted run.
    let Some((done, encoded, _)) = trail.iter().rev().find(|(d, _, _)| *d < replications) else {
        println!("\nno mid-run checkpoint to resume from (trial count too small)");
        return;
    };
    let resume: ResumePoint<MonteCarloResult> =
        checkpoint::decode(encoded).expect("engine checkpoint round-trips");
    let resumed = run_monte_carlo_with(
        &cfg,
        &engine,
        CampaignOptions {
            resume: Some(resume),
            on_checkpoint: None,
        },
    )
    .acc;
    assert_eq!(
        resumed.failures, full.failures,
        "resumed run must reproduce the uninterrupted failure count"
    );
    assert_eq!(
        checkpoint::encode(&resumed),
        checkpoint::encode(&full),
        "resumed run must be bit-identical to the uninterrupted run"
    );
    println!(
        "\nresumed from trial {done}: re-ran {} trials, result bit-identical to the full run",
        replications - done
    );
}
