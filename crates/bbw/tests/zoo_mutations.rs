//! Seeded mutation property over the scenario zoo: no `.scn` text a user
//! can write panics the pipeline, and whatever compiles runs every trial
//! it asks for.
//!
//! Each case takes one zoo file and mutates it once, or in half the cases
//! twice: a token replaced by an edge value, a token deleted or
//! duplicated, a line deleted, or a line spliced in from another zoo
//! file. Then:
//!
//! * `parse_scenario` returns (a typed error or a spec) without panicking;
//! * a parsed spec round-trips through `format_scenario`;
//! * a spec that compiles with `trials` forced to 1 runs through
//!   `run_compiled` without panicking and folds exactly that one trial.
//!   The engine quarantines a panicking trial instead of propagating it,
//!   so a fold of zero trials is how a runner panic shows here.
//!
//! `NLFT_PROP_CASES=<n>` widens the sweep; `NLFT_PROP_SEED=<seed>` replays
//! one reported case.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use nlft_bbw::scenario::{compile, run_compiled};
use nlft_reliability::scenario::{format_scenario, parse_scenario};
use nlft_testkit::prop::{CaseError, Suite};
use nlft_testkit::rng::TkRng;
use nlft_testkit::{prop_assert, prop_assert_eq};

/// Values a replaced token takes: the edges of every integer width the
/// DSL parses, a negative, and floats no rate or count accepts.
const EDGE_VALUES: [&str; 8] = [
    "0",
    "1",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "NaN",
    "-1",
    "1e308",
];

/// The zoo, one file per entry: each line with tokens, split into them
/// (comments and blank lines dropped, so every mutation lands on text
/// the parser reads).
fn zoo() -> Vec<(String, Vec<Vec<String>>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("scenarios/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let file = p.file_name().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&p).expect("zoo file readable");
            let lines = source
                .lines()
                .map(|l| {
                    let code = l.split('#').next().unwrap_or_default();
                    code.split_whitespace()
                        .map(str::to_owned)
                        .collect::<Vec<_>>()
                })
                .filter(|toks| !toks.is_empty())
                .collect();
            (file, lines)
        })
        .collect()
}

/// One mutated zoo file: what was done to which file, and the result.
#[derive(Debug)]
struct Mutant {
    file: String,
    mutation: String,
    source: String,
}

/// Picks a random token position `(line, index)` at or after index
/// `first` of its line (`1` skips the leading keywords).
fn token_at(r: &mut TkRng, lines: &[Vec<String>], first: usize) -> (usize, usize) {
    let positions: Vec<(usize, usize)> = lines
        .iter()
        .enumerate()
        .flat_map(|(l, toks)| (first.min(toks.len())..toks.len()).map(move |t| (l, t)))
        .collect();
    positions[r.usize_range(0, positions.len())]
}

/// Applies one random mutation to `lines` and describes it.
fn mutate(
    zoo: &[(String, Vec<Vec<String>>)],
    lines: &mut Vec<Vec<String>>,
    r: &mut TkRng,
) -> String {
    // Half the mutations replace a value: that is the mutation that
    // reaches compile and run with an extreme number, where runner panics
    // hide.
    match r.usize_range(0, 8) {
        0..=3 => {
            // Values, not keywords: a replaced keyword is only a parse error.
            let (l, t) = token_at(r, lines, 1);
            let value = EDGE_VALUES[r.usize_range(0, EDGE_VALUES.len())];
            let was = std::mem::replace(&mut lines[l][t], value.to_owned());
            format!("line {}: `{was}` -> `{value}`", l + 1)
        }
        4 => {
            let (l, t) = token_at(r, lines, 0);
            let was = lines[l].remove(t);
            format!("line {}: deleted `{was}`", l + 1)
        }
        5 => {
            let (l, t) = token_at(r, lines, 0);
            let copy = lines[l][t].clone();
            lines[l].insert(t, copy.clone());
            format!("line {}: duplicated `{copy}`", l + 1)
        }
        6 => {
            let l = r.usize_range(0, lines.len());
            lines.remove(l);
            format!("deleted line {}", l + 1)
        }
        _ => {
            let (donor, donor_lines) = &zoo[r.usize_range(0, zoo.len())];
            let line = donor_lines[r.usize_range(0, donor_lines.len())].clone();
            let at = r.usize_range(0, lines.len() + 1);
            let mutation = format!(
                "spliced `{}` from {donor} at line {}",
                line.join(" "),
                at + 1
            );
            lines.insert(at, line);
            mutation
        }
    }
}

fn arb_mutant(zoo: &[(String, Vec<Vec<String>>)], r: &mut TkRng) -> Mutant {
    let (file, original) = &zoo[r.usize_range(0, zoo.len())];
    let mut lines = original.clone();
    let mut mutation = mutate(zoo, &mut lines, r);
    // Single mutations have run dry: half the cases apply a second one.
    if r.bool() {
        mutation = format!("{mutation}; then {}", mutate(zoo, &mut lines, r));
    }
    let source = lines
        .iter()
        .map(|toks| toks.join(" ") + "\n")
        .collect::<String>();
    Mutant {
        file: file.clone(),
        mutation,
        source,
    }
}

/// Runs `f`, turning a panic into a failed case naming the mutant and
/// the `stage` that panicked.
fn no_panic<T>(m: &Mutant, stage: &str, f: impl FnOnce() -> T) -> Result<T, CaseError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string payload");
        CaseError::Fail(format!(
            "{} ({}): {stage} panicked: {msg}",
            m.file, m.mutation
        ))
    })
}

fn check_mutant(m: &Mutant) -> Result<(), CaseError> {
    let Ok(mut spec) = no_panic(m, "parse_scenario", || parse_scenario(&m.source))? else {
        return Ok(());
    };
    let formatted = format_scenario(&spec);
    let reparsed = no_panic(m, "parse_scenario(format_scenario)", || {
        parse_scenario(&formatted)
    })?;
    prop_assert_eq!(
        reparsed.as_ref(),
        Ok(&spec),
        "round trip via\n{}",
        formatted
    );
    spec.trials = 1;
    let Ok(compiled) = no_panic(m, "compile", || compile(&spec, 1))? else {
        return Ok(());
    };
    let outcome = no_panic(m, "run_compiled", || run_compiled(&spec.name, &compiled))?;
    prop_assert!(
        outcome.trials == 1,
        "the one trial was not folded (a runner panic the engine quarantined?): {outcome:?}"
    );
    Ok(())
}

#[test]
fn zoo_mutants_never_panic_and_fold_every_trial() {
    let zoo = zoo();
    Suite::new(0x5EED_2005).cases(64).check(
        "zoo_mutants_never_panic_and_fold_every_trial",
        |r: &mut TkRng| arb_mutant(&zoo, r),
        check_mutant,
    );
}
