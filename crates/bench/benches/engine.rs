//! The campaign engine benchmarked in isolation: per-trial scheduling
//! overhead on empty trials (the in-thread path vs the threaded
//! executor, thread spawn included), scheduling under skewed and
//! periodic per-trial costs, per-block coordination on many small
//! blocks, and the streaming block-merge fold that keeps memory
//! O(workers); full mode re-runs the skewed campaign and prints its
//! scheduling telemetry (pending-block high-water mark, claim and fold
//! waits) on one line.

use std::hint::black_box;

use nlft_engine::{indexed_campaign, run_trials, ClosureCampaign, EngineConfig, EngineReport};
use nlft_sim::stats::Histogram;
use nlft_testkit::bench::Bench;

const EMPTY_TRIALS: u64 = 10_000;
const SKEWED_TRIALS: u64 = 2_048;
const SKEW_BLOCK: u64 = 8;
const PERIODIC_TRIALS: u64 = 600;
const FINE_TRIALS: u64 = 4_000;
/// Spin rounds of a fine trial: about 2–3 µs in a release build.
const FINE_ROUNDS: u32 = 1_000;
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

/// A campaign with a 200:1 cost skew in whole blocks: with
/// [`SKEW_BLOCK`]-sized blocks, every fourth block (`block_index % 4
/// == 0`) is heavy, so whichever worker claims one falls behind while
/// the others claim the cheap blocks after it, up to the fold
/// buffer's cap.
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

/// The node-level SWIFI shape: [`PERIODIC_TRIALS`] trials at the
/// automatic block size (3), every sixth trial 50× costlier than the
/// rest, so every heavy trial falls in an even block. A uniform-cost
/// campaign cannot show how the schedule copes with this alignment.
#[allow(clippy::type_complexity)]
fn periodic_campaign() -> ClosureCampaign<
    u64,
    impl Fn() -> u64,
    impl Fn(u64, &nlft_engine::TrialCtx<'_>, &mut u64),
    impl Fn(&mut u64, u64),
> {
    indexed_campaign(
        "bench-engine-periodic",
        "unused",
        PERIODIC_TRIALS,
        || 0u64,
        |trial, _ctx, acc: &mut u64| {
            let rounds = if trial.is_multiple_of(6) { 20_000 } else { 400 };
            *acc ^= spin(trial | 1, rounds);
        },
        |into, from| *into ^= from,
    )
}

/// The weakly-hard shape without its model: [`FINE_TRIALS`] uniform
/// trials of a few microseconds at the automatic block size (16), so
/// 250 blocks of ~40 µs each and the per-block claim, delivery and fold
/// are a visible share of the campaign.
#[allow(clippy::type_complexity)]
fn fine_campaign() -> ClosureCampaign<
    u64,
    impl Fn() -> u64,
    impl Fn(u64, &nlft_engine::TrialCtx<'_>, &mut u64),
    impl Fn(&mut u64, u64),
> {
    indexed_campaign(
        "bench-engine-fine",
        "unused",
        FINE_TRIALS,
        || 0u64,
        |trial, _ctx, acc: &mut u64| *acc ^= spin(trial | 1, FINE_ROUNDS),
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

fn telemetry(report: &EngineReport) -> String {
    format!(
        "trials {} completed {} blocks {} workers {} max_pending_blocks {} \
         claim_wait_ns {} fold_wait_ns {}",
        report.trials,
        report.completed,
        report.blocks,
        report.workers,
        report.max_pending_blocks,
        report.claim_wait.as_nanos(),
        report.fold_wait.as_nanos(),
    )
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
        black_box(run.acc)
    });
    let periodic_acc = run_trials(periodic_campaign(), &EngineConfig::default()).acc;
    b.bench_throughput("periodic_trials_2_workers", PERIODIC_TRIALS, || {
        let run = run_trials(
            black_box(periodic_campaign()),
            &EngineConfig::with_workers(2),
        );
        assert_eq!(
            run.acc, periodic_acc,
            "executor must match the in-thread path"
        );
        black_box(run.acc)
    });
    let fine_acc = run_trials(fine_campaign(), &EngineConfig::default()).acc;
    b.bench_throughput("fine_blocks_2_workers", FINE_TRIALS, || {
        let run = run_trials(black_box(fine_campaign()), &EngineConfig::with_workers(2));
        assert_eq!(run.acc, fine_acc, "executor must match the in-thread path");
        black_box(run.acc)
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
        println!("engine telemetry: {}", telemetry(&run.report));
    }
    b.finish();
}
