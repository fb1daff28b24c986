//! Exhaustive cross-check of the weakly-hard bound.
//!
//! `analysis::worst_pattern` uses a greedy earliest-finish adversary to
//! bound the worst miss pattern any admissible fault placement can
//! produce. This test removes all trust in the greedy argument for a
//! small configuration by *enumerating every fault placement* on a 1µs
//! grid over a 5-job horizon and asserting the bound is **exact**:
//!
//! * sound — no enumerated placement produces more misses than the
//!   analyzer's worst pattern, in the full horizon or any k-window, so
//!   a certified (m,k) contract is never violated;
//! * tight — the reported worst pattern is itself reachable by an
//!   enumerated placement (the bound is not conservative slack).
//!
//! A seeded property pins `MissModel::misses`, a one-pass sweep, to its
//! definition: a job misses when more than `tolerated` faults land in
//! its window.

use nlft_kernel::analysis::{analyse_weakly_hard, faults_tolerated, MissModel, TemCosts};
use nlft_kernel::contract::MkContract;
use nlft_kernel::task::{Criticality, Priority, TaskId, TaskSet, TaskSpecBuilder};
use nlft_sim::time::SimDuration;
use nlft_testkit::prop::Suite;
use nlft_testkit::prop_assert_eq;
use nlft_testkit::rng::TkRng;

fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

/// All fault placements on a 1µs grid in `[0, horizon)` whose
/// consecutive faults are at least `sep` apart (the empty placement
/// included).
fn all_placements(horizon: u64, sep: u64) -> Vec<Vec<u64>> {
    fn rec(next: u64, horizon: u64, sep: u64, cur: &mut Vec<u64>, out: &mut Vec<Vec<u64>>) {
        for t in next..horizon {
            cur.push(t);
            out.push(cur.clone());
            rec(t + sep, horizon, sep, cur, out);
            cur.pop();
        }
    }
    let mut out = vec![Vec::new()];
    let mut cur = Vec::new();
    rec(0, horizon, sep, &mut cur, &mut out);
    out
}

/// The task under test: one critical task, T = 5µs, D = 4µs, C = 2µs.
/// With zero TEM overheads R(f) = 2 + 2·f ≤ 4 ⇒ exactly one fault per
/// job is tolerated.
fn task_set() -> TaskSet {
    [TaskSpecBuilder::new(TaskId(1), "probe")
        .period(us(5))
        .deadline(us(4))
        .wcet(us(2))
        .priority(Priority(0))
        .criticality(Criticality::Critical)
        .build()
        .unwrap()]
    .into_iter()
    .collect()
}

const ZERO_COSTS: TemCosts = TemCosts {
    compare: SimDuration::ZERO,
    vote: SimDuration::ZERO,
    context_restore: SimDuration::ZERO,
};

const HORIZON_JOBS: u32 = 5;
const FAULT_SEP_US: u64 = 3;

fn model() -> MissModel {
    let set = task_set();
    let task = set.get(TaskId(1)).unwrap();
    let tolerated = faults_tolerated(&set, task, |k| k.wcet).expect("schedulable");
    assert_eq!(tolerated, 1, "2 + 2·f ≤ 4 tolerates exactly one fault");
    MissModel {
        period: task.period,
        deadline: task.deadline,
        fault_interval: us(FAULT_SEP_US),
        tolerated,
    }
}

#[test]
fn greedy_bound_is_exact_under_exhaustive_enumeration() {
    let m = model();
    let (worst_pattern, worst_faults) = m.worst_pattern(HORIZON_JOBS);
    // T_F = 3: a killing pair spans 3 < 4, but its tail blocks the next
    // window — the adversary can only kill alternating jobs.
    assert_eq!(worst_pattern, vec![true, false, true, false, true]);
    let bound = worst_pattern.iter().filter(|&&miss| miss).count();

    // The placement the analyzer reports must reproduce its pattern.
    assert_eq!(m.misses(&worst_faults, HORIZON_JOBS), worst_pattern);
    for w in worst_faults.windows(2) {
        assert!(
            w[1] - w[0] >= us(FAULT_SEP_US),
            "reported placement illegal"
        );
    }

    // Enumerate every admissible placement over the horizon.
    let horizon_us = u64::from(HORIZON_JOBS) * 5;
    let placements = all_placements(horizon_us, FAULT_SEP_US);
    assert!(placements.len() > 1_000, "enumeration must be non-trivial");

    let mut exhaustive_worst = 0usize;
    let mut worst_reached = false;
    for p in &placements {
        let times: Vec<SimDuration> = p.iter().map(|&t| us(t)).collect();
        let pattern = m.misses(&times, HORIZON_JOBS);
        let count = pattern.iter().filter(|&&miss| miss).count();
        assert!(
            count <= bound,
            "placement {p:?} beats the analyzer bound: {count} > {bound}"
        );
        exhaustive_worst = exhaustive_worst.max(count);
        worst_reached |= pattern == worst_pattern;
    }
    assert_eq!(
        exhaustive_worst, bound,
        "bound must be tight, not conservative"
    );
    assert!(
        worst_reached,
        "the reported worst pattern must be reachable"
    );
}

#[test]
fn certified_contracts_survive_every_placement() {
    let set = task_set();
    let bounds = analyse_weakly_hard(
        &set,
        &[
            (TaskId(1), MkContract::new(2, 3)),
            (TaskId(1), MkContract::new(1, 3)),
        ],
        us(FAULT_SEP_US),
        &ZERO_COSTS,
    );
    assert_eq!(bounds[0].tolerated_faults, Some(1));
    assert_eq!(bounds[0].worst_misses, 2, "worst 3-window: miss, hit, miss");
    assert!(bounds[0].satisfied, "(2,3) is certified");
    assert!(!bounds[1].satisfied, "(1,3) is refused");

    let m = model();
    let horizon_us = u64::from(HORIZON_JOBS) * 5;
    let certified = MkContract::new(2, 3);
    let refused = MkContract::new(1, 3);
    let mut refused_violated = false;
    for p in all_placements(horizon_us, FAULT_SEP_US) {
        let times: Vec<SimDuration> = p.iter().map(|&t| us(t)).collect();
        let pattern = m.misses(&times, HORIZON_JOBS);
        // Soundness: the certified contract holds in every window of
        // every admissible placement.
        assert!(
            certified.satisfied_by(&pattern),
            "certified contract violated by placement {p:?}"
        );
        refused_violated |= !refused.satisfied_by(&pattern);
    }
    // Tightness: the refusal was justified — some placement actually
    // breaks the weaker contract.
    assert!(
        refused_violated,
        "(1,3) must be violated by a real placement"
    );
}

/// The definition `misses` implements: for each job, count the faults
/// inside its window by filtering the whole train.
fn misses_by_definition(m: &MissModel, fault_times: &[SimDuration], k: u32) -> Vec<bool> {
    (0..u64::from(k))
        .map(|j| {
            let release = m.period * j;
            let deadline = release + m.deadline;
            let hits = fault_times
                .iter()
                .filter(|&&f| f >= release && f < deadline)
                .count();
            hits as u32 > m.tolerated
        })
        .collect()
}

/// One `misses` input: a model, a job count and a fault train.
#[derive(Debug)]
struct MissCase {
    model: MissModel,
    k: u32,
    faults: Vec<SimDuration>,
}

/// Periods of 1–40 µs with deadlines below, at or above the period; k in
/// [0, 128]; up to 80 faults reaching past the horizon, a third of them on
/// a release or deadline edge. The train is left sorted, shuffled, or
/// sorted with duplicated times.
fn arb_miss_case(r: &mut TkRng) -> MissCase {
    let period = r.range(1, 41);
    let deadline = match r.range(0, 3) {
        0 => r.range(0, period),
        1 => period,
        _ => r.range(period + 1, 3 * period + 1),
    };
    let k = r.range(0, 129) as u32;
    let reach = (u64::from(k) + 2) * period + deadline;
    let mut faults: Vec<u64> = (0..r.range(0, 81))
        .map(|_| {
            let job = r.range(0, u64::from(k) + 2) * period;
            match r.range(0, 6) {
                0 => job,
                1 => job + deadline,
                _ => r.range(0, reach),
            }
        })
        .collect();
    faults.sort_unstable();
    match r.range(0, 3) {
        0 => {}
        1 => {
            for i in (1..faults.len()).rev() {
                faults.swap(i, r.usize_range(0, i + 1));
            }
        }
        _ => {
            for _ in 0..r.range(1, 6) {
                if !faults.is_empty() {
                    let i = r.usize_range(0, faults.len());
                    faults.insert(i, faults[i]);
                }
            }
        }
    }
    MissCase {
        model: MissModel {
            period: us(period),
            deadline: us(deadline),
            fault_interval: us(1),
            tolerated: r.range(0, 4) as u32,
        },
        k,
        faults: faults.into_iter().map(us).collect(),
    }
}

#[test]
fn misses_sweep_equals_the_definition() {
    Suite::new(0x5EED_3155).cases(512).check(
        "misses_sweep_equals_the_definition",
        arb_miss_case,
        |c| {
            prop_assert_eq!(
                c.model.misses(&c.faults, c.k),
                misses_by_definition(&c.model, &c.faults, c.k)
            );
            Ok(())
        },
    );
}
