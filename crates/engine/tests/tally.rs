//! The code `tally!` generates, checked once on a small declaration with
//! both fold kinds: merging any block split equals the one-block fold,
//! and the checkpoint codec round-trips byte for byte and rejects a
//! truncated or over-long token stream.

use nlft_engine::checkpoint;
use nlft_engine::Tally;
use nlft_testkit::prop::Suite;
use nlft_testkit::rng::TkRng;
use nlft_testkit::{prop_assert, prop_assert_eq};

const SUITE: Suite = Suite::new(0x7A11_7E57).cases(500);

nlft_engine::tally! {
    /// A toy family: a two-rung ladder, a summed and a maximised metric.
    pub struct ToyCounts: "toy-counts" {
        verdicts {
            /// Trials that passed.
            passed,
            /// Trials that failed.
            failed,
        }
        metrics {
            /// Work summed over trials.
            work,
            /// Largest single-trial work.
            peak: max,
        }
    }
}

/// Folds one trial's outcome, as a family's per-trial body would.
fn record(counts: &mut ToyCounts, (passed, work): (bool, u64)) {
    counts.trials += 1;
    if passed {
        counts.passed += 1;
    } else {
        counts.failed += 1;
    }
    counts.work += work;
    counts.peak = counts.peak.max(work);
}

/// A trial stream plus sorted cut points (duplicates allowed, so empty
/// blocks occur).
fn split_case(r: &mut TkRng) -> (Vec<(bool, u64)>, Vec<usize>) {
    let n = r.usize_range(0, 120);
    let trials: Vec<(bool, u64)> = (0..n).map(|_| (r.bool(), r.range(0, 1 << 40))).collect();
    let mut cuts: Vec<usize> = (0..r.usize_range(0, 8))
        .map(|_| r.usize_range(0, n + 1))
        .collect();
    cuts.sort_unstable();
    (trials, cuts)
}

#[test]
fn generated_tally_merges_splits_and_round_trips_its_checkpoint() {
    SUITE.check("tally_split_and_codec", split_case, |(trials, cuts)| {
        let mut whole = ToyCounts::default();
        for &t in trials {
            record(&mut whole, t);
        }
        let mut merged = ToyCounts::default();
        let mut start = 0;
        for &end in cuts.iter().chain(std::iter::once(&trials.len())) {
            let mut block = ToyCounts::default();
            for &t in &trials[start..end] {
                record(&mut block, t);
            }
            merged.merge(&block);
            start = end;
        }
        prop_assert_eq!(merged, whole);
        prop_assert_eq!(whole.trials(), trials.len() as u64);
        prop_assert_eq!(
            whole.verdicts(),
            vec![("passed", whole.passed), ("failed", whole.failed)]
        );
        prop_assert_eq!(whole.ladder_total(), u128::from(whole.trials()));
        prop_assert_eq!(
            whole.metrics(),
            vec![("work", whole.work), ("peak", whole.peak)]
        );

        let text = checkpoint::encode(&whole);
        let decoded = checkpoint::decode::<ToyCounts>(&text);
        prop_assert_eq!(decoded, Ok(whole));
        let reencoded = decoded.map(|d| checkpoint::encode(&d));
        prop_assert_eq!(reencoded.as_ref(), Ok(&text));

        let (truncated, _) = text.rsplit_once(' ').expect("tag plus five counters");
        prop_assert!(checkpoint::decode::<ToyCounts>(truncated).is_err());
        prop_assert!(checkpoint::decode::<ToyCounts>(&format!("{text} 0")).is_err());
        Ok(())
    });
}

#[test]
fn merge_saturates_at_the_u64_edge() {
    // A decoded checkpoint can carry any u64; folding more trials into
    // it must neither wrap nor panic.
    let mut edge = ToyCounts {
        trials: u64::MAX - 1,
        passed: u64::MAX - 1,
        work: u64::MAX - 1,
        peak: 7,
        ..ToyCounts::default()
    };
    let more = ToyCounts {
        trials: 3,
        passed: 3,
        work: 5,
        peak: 9,
        ..ToyCounts::default()
    };
    edge.merge(&more);
    assert_eq!(
        (edge.trials, edge.passed, edge.failed, edge.work, edge.peak),
        (u64::MAX, u64::MAX, 0, u64::MAX, 9)
    );
}
