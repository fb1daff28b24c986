//! Checkpoint and resume across the scenario families.
//!
//! * Every family round-trips: one zoo scenario per family, resumed
//!   from each checkpoint it writes, reproduces its golden pin at 1 and
//!   4 workers.
//! * A checkpoint is bound to its scenario: resuming another scenario
//!   from it is rejected, even one of the same family, seed and trial
//!   count.
//! * A seeded mutation property over real checkpoint text: one or two
//!   tokens replaced, deleted, duplicated or swapped. `run_scenario_with`
//!   never panics, and it returns either a typed error or an outcome
//!   that folds every trial it runs. The checkpoints come from near the
//!   end of each run, so an accepted mutant runs few trials.
//! * The same kind of mutation over encodings of the statistics
//!   accumulators and of a Monte-Carlo result and its resume point:
//!   decoding never panics, and whatever decodes re-encodes to a fixed
//!   point.
//!
//! `NLFT_PROP_CASES=<n>` widens the sweep; `NLFT_PROP_SEED=<seed>` replays
//! one reported case.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Mutex;

use nlft_bbw::montecarlo::MonteCarloResult;
use nlft_bbw::scenario::{run_scenario, run_scenario_with, RunError, ScenarioOutcome};
use nlft_engine::checkpoint::{self, Checkpoint};
use nlft_engine::{EngineConfig, ResumePoint};
use nlft_reliability::scenario::{parse_scenario, ScenarioSpec};
use nlft_sim::stats::{Histogram, OnlineStats, Proportion, SurvivalCurve};
use nlft_testkit::prop::{CaseError, Suite};
use nlft_testkit::prop_assert_eq;
use nlft_testkit::rng::TkRng;

/// One zoo scenario per family, in `families!` order.
const ONE_PER_FAMILY: [&str; 8] = [
    "net-storm-nominal",
    "value-single-fault-coverage",
    "full-blackout-coldstart",
    "recovery-ladder-mix",
    "weakly-hard-nominal-storm",
    "core-death-mid-section",
    "node-nlft-reference",
    "babbling-wheel",
];

fn by_name(name: &str) -> ScenarioSpec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(format!("{name}.scn"));
    let source = std::fs::read_to_string(&path).expect("zoo file readable");
    parse_scenario(&source).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Runs `spec` at `workers` workers from `resume`, if any.
fn resume(
    spec: &ScenarioSpec,
    workers: usize,
    text: Option<&str>,
) -> Result<ScenarioOutcome, RunError> {
    run_scenario_with(spec, &EngineConfig::with_workers(workers), text, None)
}

/// Every checkpoint an uninterrupted two-worker run of `spec` writes
/// at a cadence of `every` trials, with the trial count each covers.
fn checkpoints(spec: &ScenarioSpec, every: u64) -> Vec<(u64, String)> {
    let saved = Mutex::new(Vec::new());
    let record = |done: u64, text: String| saved.lock().unwrap().push((done, text));
    let engine = EngineConfig {
        checkpoint_every: every,
        ..EngineConfig::with_workers(2)
    };
    let outcome = run_scenario_with(spec, &engine, None, Some(&record)).expect("zoo runs");
    assert_eq!(Some(outcome.digest), spec.accept.pin, "{}", spec.name);
    saved.into_inner().unwrap()
}

#[test]
fn every_family_resumes_from_every_checkpoint_to_its_pin() {
    for name in ONE_PER_FAMILY {
        let spec = by_name(name);
        let saved = checkpoints(&spec, (spec.trials / 4).max(1));
        assert!(saved.len() >= 2, "{name}: {} checkpoints", saved.len());
        for (done, text) in &saved {
            for workers in [1, 4] {
                let outcome = resume(&spec, workers, Some(text))
                    .unwrap_or_else(|e| panic!("{name} at {done}: {e}"));
                assert_eq!(
                    Some(outcome.digest),
                    spec.accept.pin,
                    "{name} resumed at trial {done} on {workers} workers"
                );
            }
        }
    }
}

/// Resuming `into` from a checkpoint of `from` is rejected, naming the
/// scenario field.
fn assert_bound(from: &str, into: &str) {
    let (_, text) = checkpoints(&by_name(from), 4).pop().expect("a checkpoint");
    let e = resume(&by_name(into), 1, Some(&text)).expect_err(into);
    let RunError::Resume { scenario, message } = &e else {
        panic!("{e}");
    };
    assert_eq!(scenario, into);
    assert!(
        message.contains(&format!(
            "checkpoint scenario `{from}` is not this scenario's `{into}`"
        )),
        "{e}"
    );
}

#[test]
fn a_checkpoint_does_not_resume_another_cluster_scenario() {
    // Both are 12-trial cluster scenarios: before checkpoints named
    // their scenario, this folded babbling-wheel's trials into a
    // wheel-restart-under-blackout outcome.
    assert_bound("babbling-wheel", "wheel-restart-under-blackout");
}

#[test]
fn a_checkpoint_does_not_resume_a_twin_of_the_same_seed_and_trials() {
    // Same family, seed 0xd5a2005 and 300 trials; only the policy differs.
    assert_bound("node-nlft-reference", "node-failsilent-reference");
}

/// Values a replaced token takes: the `u64` edges and past them, a
/// negative, a non-number, and tokens that belong in other checkpoints.
const EDGE_TOKENS: [&str; 9] = [
    "0",
    "1",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "x",
    "resume",
    "cluster-tallies",
    "node-failsilent-reference",
];

/// A mutated checkpoint of one scenario.
#[derive(Debug)]
struct Mutant {
    /// Index into the base checkpoints.
    base: usize,
    mutations: Vec<String>,
    text: String,
}

/// The scenarios and, per scenario, its last two checkpoints.
struct Bases {
    specs: Vec<ScenarioSpec>,
    /// `(index into specs, checkpoint text)`.
    checkpoints: Vec<(usize, String)>,
}

fn bases() -> Bases {
    let specs: Vec<ScenarioSpec> = ONE_PER_FAMILY.iter().map(|n| by_name(n)).collect();
    let mut all = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let saved = checkpoints(spec, 1);
        all.extend(saved.into_iter().rev().take(2).map(|(_, text)| (i, text)));
    }
    Bases {
        specs,
        checkpoints: all,
    }
}

fn arb_mutant(bases: &Bases, r: &mut TkRng) -> Mutant {
    let base = r.usize_range(0, bases.checkpoints.len());
    let mut tokens: Vec<String> = bases.checkpoints[base]
        .1
        .split_whitespace()
        .map(str::to_owned)
        .collect();
    let mut mutations = Vec::new();
    for _ in 0..r.usize_range(1, 3) {
        let at = r.usize_range(0, tokens.len());
        let mutation = match r.usize_range(0, 6) {
            0 | 1 => {
                let value = EDGE_TOKENS[r.usize_range(0, EDGE_TOKENS.len())].to_owned();
                let was = std::mem::replace(&mut tokens[at], value.clone());
                format!("token {at}: `{was}` -> `{value}`")
            }
            2 => {
                // A near miss: the kind of drift a consistency check must
                // catch, or that an accepted counter simply carries.
                let Ok(n) = tokens[at].parse::<u64>() else {
                    continue;
                };
                let value = if r.bool() {
                    n.wrapping_add(1)
                } else {
                    n.wrapping_sub(1)
                };
                tokens[at] = value.to_string();
                format!("token {at}: {n} -> {value}")
            }
            3 if tokens.len() > 1 => format!("deleted token {at} `{}`", tokens.remove(at)),
            4 => {
                let copy = tokens[at].clone();
                tokens.insert(at, copy.clone());
                format!("duplicated token {at} `{copy}`")
            }
            _ => {
                let other = r.usize_range(0, tokens.len());
                tokens.swap(at, other);
                format!("swapped tokens {at} and {other}")
            }
        };
        mutations.push(mutation);
    }
    Mutant {
        base,
        mutations,
        text: tokens.join(" "),
    }
}

fn check_mutant(bases: &Bases, m: &Mutant) -> Result<(), CaseError> {
    let spec = &bases.specs[bases.checkpoints[m.base].0];
    let run = catch_unwind(AssertUnwindSafe(|| resume(spec, 1, Some(&m.text))));
    let Ok(result) = run else {
        return Err(CaseError::Fail(format!(
            "{} ({:?}): run_scenario_with panicked",
            spec.name, m.mutations
        )));
    };
    let Ok(outcome) = result else {
        return Ok(());
    };
    // An accepted checkpoint is well formed: ten header tokens, then
    // `resume <done> <tag> <trials> …`. Every trial past `done` must be
    // folded on top of the `trials` it already counts.
    let tokens: Vec<&str> = m.text.split_whitespace().collect();
    let done: u64 = tokens[11].parse().expect("accepted, so decoded");
    let counted: u64 = tokens[13].parse().expect("accepted, so decoded");
    prop_assert_eq!(
        outcome.trials,
        counted + (spec.trials - done),
        "{} ({:?}): a trial was not folded",
        spec.name,
        m.mutations
    );
    Ok(())
}

#[test]
fn checkpoint_mutants_never_panic_and_fold_every_trial() {
    let bases = bases();
    // The unmutated bases resume to their scenario's full run.
    for (i, text) in &bases.checkpoints {
        let spec = &bases.specs[*i];
        let plain = run_scenario(spec, 1).expect("zoo runs");
        assert_eq!(resume(spec, 1, Some(text)).as_ref(), Ok(&plain));
    }
    Suite::new(0xC4EC_2005).cases(64).check(
        "checkpoint_mutants_never_panic_and_fold_every_trial",
        |r: &mut TkRng| arb_mutant(&bases, r),
        |m| check_mutant(&bases, m),
    );
}

/// Tokens a mutated statistics checkpoint takes: the `u64` edges and
/// past them, float bit patterns for zero, one, infinities and NaN, a
/// non-number, and every statistics tag.
const STATS_TOKENS: [&str; 18] = [
    "0",
    "1",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "0x0000000000000000",
    "0x3ff0000000000000",
    "0x7ff0000000000000",
    "0xfff0000000000000",
    "0x7ff8000000000000",
    "0x",
    "x",
    "online",
    "prop",
    "hist",
    "survival",
    "mc",
    "resume",
];

/// Decodes `text` as a `T`; if it decodes, its encoding must decode
/// again to the same encoding.
fn re_encodes_to_a_fixed_point<T: Checkpoint>(text: &str) -> Result<(), String> {
    let Ok(value) = checkpoint::decode::<T>(text) else {
        return Ok(());
    };
    let once = checkpoint::encode(&value);
    let again = checkpoint::decode::<T>(&once)
        .map_err(|e| format!("its encoding `{once}` does not decode: {e}"))?;
    let twice = checkpoint::encode(&again);
    if once == twice {
        Ok(())
    } else {
        Err(format!("encoding `{once}` re-encodes as `{twice}`"))
    }
}

/// A valid encoding of each statistics type, with its fixed-point check.
type StatsBase = (&'static str, String, fn(&str) -> Result<(), String>);

fn stats_bases() -> Vec<StatsBase> {
    let mut online = OnlineStats::new();
    let mut hist = Histogram::new(0.0, 10.0, 5);
    let mut prop = Proportion::new();
    let mut curve = SurvivalCurve::new(vec![1.0, 2.0, 4.0]);
    for (i, x) in [0.5, 3.25, 9.5, -1.0, 12.0, 2.0].into_iter().enumerate() {
        online.record(x);
        hist.record(x);
        prop.record(i % 3 == 0);
        if x > 0.0 {
            curve.record_failure(x);
        } else {
            curve.record_survivor();
        }
    }
    let mc = MonteCarloResult {
        curve: curve.clone(),
        failures: 5,
        failure_times: online,
    };
    let resume = ResumePoint {
        trials_done: 6,
        acc: mc.clone(),
    };
    vec![
        (
            "online",
            online.encode(),
            re_encodes_to_a_fixed_point::<OnlineStats>,
        ),
        (
            "prop",
            prop.encode(),
            re_encodes_to_a_fixed_point::<Proportion>,
        ),
        (
            "hist",
            hist.encode(),
            re_encodes_to_a_fixed_point::<Histogram>,
        ),
        (
            "survival",
            curve.encode(),
            re_encodes_to_a_fixed_point::<SurvivalCurve>,
        ),
        (
            "mc",
            mc.encode(),
            re_encodes_to_a_fixed_point::<MonteCarloResult>,
        ),
        (
            "resume",
            resume.encode(),
            re_encodes_to_a_fixed_point::<ResumePoint<MonteCarloResult>>,
        ),
    ]
}

/// A statistics checkpoint with one or two tokens dropped, duplicated,
/// swapped or replaced.
#[derive(Debug)]
struct StatsMutant {
    base: usize,
    mutations: Vec<String>,
    text: String,
}

fn arb_stats_mutant(bases: &[StatsBase], r: &mut TkRng) -> StatsMutant {
    let base = r.usize_range(0, bases.len());
    let mut tokens: Vec<String> = bases[base]
        .1
        .split_whitespace()
        .map(str::to_owned)
        .collect();
    let mut mutations = Vec::new();
    for _ in 0..r.usize_range(1, 3) {
        let at = r.usize_range(0, tokens.len());
        let mutation = match r.usize_range(0, 4) {
            0 if tokens.len() > 1 => format!("dropped token {at} `{}`", tokens.remove(at)),
            1 => {
                let copy = tokens[at].clone();
                tokens.insert(at, copy.clone());
                format!("duplicated token {at} `{copy}`")
            }
            2 => {
                let other = r.usize_range(0, tokens.len());
                tokens.swap(at, other);
                format!("swapped tokens {at} and {other}")
            }
            _ => {
                let value = STATS_TOKENS[r.usize_range(0, STATS_TOKENS.len())].to_owned();
                let was = std::mem::replace(&mut tokens[at], value.clone());
                format!("token {at}: `{was}` -> `{value}`")
            }
        };
        mutations.push(mutation);
    }
    StatsMutant {
        base,
        mutations,
        text: tokens.join(" "),
    }
}

#[test]
fn stats_checkpoint_mutants_never_panic_and_re_encode_to_a_fixed_point() {
    let bases = stats_bases();
    for (name, text, check) in &bases {
        assert_eq!(check(text), Ok(()), "{name}");
    }
    Suite::new(0x57A7_2005).cases(64).check(
        "stats_checkpoint_mutants_never_panic_and_re_encode_to_a_fixed_point",
        |r: &mut TkRng| arb_stats_mutant(&bases, r),
        |m| {
            let (name, _, check) = &bases[m.base];
            match catch_unwind(AssertUnwindSafe(|| check(&m.text))) {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(CaseError::Fail(format!("{name} ({:?}): {e}", m.mutations))),
                Err(_) => Err(CaseError::Fail(format!(
                    "{name} ({:?}): decoding `{}` panicked",
                    m.mutations, m.text
                ))),
            }
        },
    );
}
