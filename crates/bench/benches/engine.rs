//! The campaign engine benchmarked in isolation: per-trial scheduling
//! overhead on empty trials (the in-thread path vs the work-stealing
//! executor, thread spawn included), steal behaviour under skewed
//! per-trial costs, and the streaming block-merge fold that keeps
//! memory O(workers); full mode re-runs the skewed campaign and writes
//! its scheduling telemetry (steal rate, pending-block high-water
//! mark) to `ENGINE.json` under `<target>/testkit/`.

use std::hint::black_box;

use nlft_engine::{indexed_campaign, run_trials, ClosureCampaign, EngineConfig, EngineReport};
use nlft_sim::stats::Histogram;
use nlft_testkit::bench::{artifact_path, Bench};
use nlft_testkit::json::Json;

const EMPTY_TRIALS: u64 = 10_000;
const SKEWED_TRIALS: u64 = 2_048;
const SKEW_BLOCK: u64 = 8;
const MERGE_BLOCKS: usize = 256;

/// Three rounds of xorshift per unit of `rounds` — deterministic spin
/// work whose cost scales linearly with `rounds`.
fn spin(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// A campaign whose trial body is a single wrapping add: everything the
/// benchmark measures is engine overhead (block partition, deque
/// traffic, fold ordering), not trial work.
#[allow(clippy::type_complexity)]
fn empty_campaign() -> ClosureCampaign<
    u64,
    impl Fn() -> u64,
    impl Fn(u64, &nlft_engine::TrialCtx<'_>, &mut u64),
    impl Fn(&mut u64, u64),
> {
    indexed_campaign(
        "bench-engine-empty",
        "unused",
        EMPTY_TRIALS,
        || 0u64,
        |trial, _ctx, acc: &mut u64| *acc = acc.wrapping_add(trial),
        |into, from| *into = into.wrapping_add(from),
    )
}

/// A campaign with a 200:1 cost skew aligned against the round-robin
/// deal: blocks are dealt to deques by `block_index % workers`, so with
/// [`SKEW_BLOCK`]-sized blocks and four workers, every heavy block
/// (`block_index % 4 == 0`) lands on worker 0's deque — the other three
/// run dry and must steal from its back.
#[allow(clippy::type_complexity)]
fn skewed_campaign() -> ClosureCampaign<
    u64,
    impl Fn() -> u64,
    impl Fn(u64, &nlft_engine::TrialCtx<'_>, &mut u64),
    impl Fn(&mut u64, u64),
> {
    indexed_campaign(
        "bench-engine-skewed",
        "unused",
        SKEWED_TRIALS,
        || 0u64,
        |trial, _ctx, acc: &mut u64| {
            let rounds = if (trial / SKEW_BLOCK).is_multiple_of(4) {
                10_000
            } else {
                50
            };
            *acc ^= spin(trial | 1, rounds);
        },
        |into, from| *into ^= from,
    )
}

/// One block-partial accumulator as the executor's fold loop sees it:
/// a populated histogram whose counters the streaming merge folds in.
fn block_partials() -> Vec<Histogram> {
    (0..MERGE_BLOCKS)
        .map(|block| {
            let mut h = Histogram::new(0.0, 100.0, 32);
            for i in 0..64u64 {
                let x = spin(block as u64 * 64 + i + 1, 1) % 1_000;
                h.record(x as f64 / 10.0);
            }
            h
        })
        .collect()
}

fn telemetry(report: &EngineReport) -> Json {
    Json::obj(vec![
        ("trials", Json::UInt(report.trials)),
        ("completed", Json::UInt(report.completed)),
        ("blocks", Json::UInt(report.blocks)),
        ("steals", Json::UInt(report.steals)),
        ("workers", Json::UInt(report.workers as u64)),
        (
            "max_pending_blocks",
            Json::UInt(report.max_pending_blocks as u64),
        ),
    ])
}

fn main() {
    let mut b = Bench::new("engine");

    // The in-thread path and the threaded executor run the identical
    // block partition and fold, so their accumulators must agree
    // bit-for-bit — asserted here on every iteration for free.
    let seq_acc = run_trials(empty_campaign(), &EngineConfig::default()).acc;

    b.bench_throughput("empty_trials_sequential", EMPTY_TRIALS, || {
        let run = run_trials(black_box(empty_campaign()), &EngineConfig::default());
        assert_eq!(run.acc, seq_acc);
        black_box(run.acc)
    });
    b.bench_throughput("empty_trials_4_workers", EMPTY_TRIALS, || {
        let run = run_trials(black_box(empty_campaign()), &EngineConfig::with_workers(4));
        assert_eq!(run.acc, seq_acc, "executor must match the in-thread path");
        black_box(run.acc)
    });
    let skew_cfg = EngineConfig {
        workers: 4,
        block_size: Some(SKEW_BLOCK),
        ..EngineConfig::default()
    };
    b.bench_throughput("skewed_trials_4_workers", SKEWED_TRIALS, || {
        let run = run_trials(black_box(skewed_campaign()), &skew_cfg);
        black_box((run.acc, run.report.steals))
    });
    b.bench_with_setup("streaming_merge_256_blocks", block_partials, |partials| {
        let mut folded = Histogram::new(0.0, 100.0, 32);
        for partial in &partials {
            folded.merge(partial);
        }
        black_box(folded.count())
    });

    if b.is_full() {
        let run = run_trials(skewed_campaign(), &skew_cfg);
        let path = artifact_path("ENGINE.json");
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, telemetry(&run.report).to_string()) {
            Ok(()) => println!("engine telemetry written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    b.finish();
}
