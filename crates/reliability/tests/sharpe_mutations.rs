//! Seeded mutation property over the SHARPE-style model files in
//! `models/`: no model text a user can write panics or hangs the parser or
//! the evaluation of what it accepts.
//!
//! Each case takes one model file and mutates it once or twice: a token
//! replaced by an edge value, a token deleted or duplicated, a line
//! deleted, or a line spliced in from the other model file. Then:
//!
//! * `lang::parse` returns (a typed error or a model set) without
//!   panicking;
//! * an error's line lies within the source and its column within that
//!   line (or just past its end, for a missing operand);
//! * every model of a parsed set has `R(t)` in `[0, 1]` at t = 0, 1 and
//!   8760 hours, no `R(t)` at a negative or non-finite t, and
//!   `markov_mttf` returns.
//!
//! `NLFT_PROP_CASES=<n>` widens the sweep; `NLFT_PROP_SEED=<seed>` replays
//! one reported case.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use nlft_reliability::lang;
use nlft_testkit::prop::{CaseError, Suite};
use nlft_testkit::prop_assert;
use nlft_testkit::rng::TkRng;

/// Values a replaced token takes: the edges of every integer width, a
/// negative, and floats no rate or probability accepts.
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

/// The model files, one per entry: each line with tokens, split into them
/// (comments and blank lines dropped, so every mutation lands on text the
/// parser reads).
fn models() -> Vec<(String, Vec<Vec<String>>)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../models");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("models/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "sharpe"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let file = p.file_name().unwrap().to_string_lossy().into_owned();
            let source = std::fs::read_to_string(&p).expect("model file readable");
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

/// One mutated model file: what was done to which file, and the result.
#[derive(Debug)]
struct Mutant {
    file: String,
    mutations: Vec<String>,
    source: String,
}

/// Picks a random token position `(line, index)` at or after index
/// `first` of its line (`1` skips the leading keywords).
fn token_at(r: &mut TkRng, lines: &[Vec<String>], first: usize) -> Option<(usize, usize)> {
    let positions: Vec<(usize, usize)> = lines
        .iter()
        .enumerate()
        .flat_map(|(l, toks)| (first.min(toks.len())..toks.len()).map(move |t| (l, t)))
        .collect();
    (!positions.is_empty()).then(|| positions[r.usize_range(0, positions.len())])
}

/// Applies one mutation to `lines`, describing it; `None` when `lines` has
/// nothing left to mutate in the drawn way.
fn mutate(
    models: &[(String, Vec<Vec<String>>)],
    lines: &mut Vec<Vec<String>>,
    r: &mut TkRng,
) -> Option<String> {
    // Half the mutations replace a value: that is the mutation that
    // reaches evaluation with an extreme number.
    Some(match r.usize_range(0, 8) {
        0..=3 => {
            let (l, t) = token_at(r, lines, 1)?;
            let value = EDGE_VALUES[r.usize_range(0, EDGE_VALUES.len())];
            let was = std::mem::replace(&mut lines[l][t], value.to_owned());
            format!("line {}: `{was}` -> `{value}`", l + 1)
        }
        4 => {
            let (l, t) = token_at(r, lines, 0)?;
            let was = lines[l].remove(t);
            if lines[l].is_empty() {
                lines.remove(l);
            }
            format!("line {}: deleted `{was}`", l + 1)
        }
        5 => {
            let (l, t) = token_at(r, lines, 0)?;
            let copy = lines[l][t].clone();
            lines[l].insert(t, copy.clone());
            format!("line {}: duplicated `{copy}`", l + 1)
        }
        6 => {
            if lines.is_empty() {
                return None;
            }
            let l = r.usize_range(0, lines.len());
            lines.remove(l);
            format!("deleted line {}", l + 1)
        }
        _ => {
            let (donor, donor_lines) = &models[r.usize_range(0, models.len())];
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
    })
}

fn arb_mutant(models: &[(String, Vec<Vec<String>>)], r: &mut TkRng) -> Mutant {
    let (file, original) = &models[r.usize_range(0, models.len())];
    let mut lines = original.clone();
    let mutations = (0..r.usize_range(1, 3))
        .filter_map(|_| mutate(models, &mut lines, r))
        .collect();
    let source = lines
        .iter()
        .map(|toks| toks.join(" ") + "\n")
        .collect::<String>();
    Mutant {
        file: file.clone(),
        mutations,
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
            "{} ({:?}): {stage} panicked: {msg}",
            m.file, m.mutations
        ))
    })
}

fn check_mutant(m: &Mutant) -> Result<(), CaseError> {
    let set = match no_panic(m, "parse", || lang::parse(&m.source))? {
        Ok(set) => set,
        Err(e) => {
            let line = m.source.lines().nth(e.line.wrapping_sub(1));
            prop_assert!(
                line.is_some_and(|l| (1..=l.chars().count() + 1).contains(&e.col)),
                "{} ({:?}): `{e}` is not located in the source:\n{}",
                m.file,
                m.mutations,
                m.source
            );
            return Ok(());
        }
    };
    for name in set.model_names() {
        for t in [0.0, 1.0, 8760.0] {
            let r = no_panic(m, "reliability", || set.reliability(name, t))?;
            prop_assert!(
                r.is_some_and(|r| (0.0..=1.0).contains(&r)),
                "{} ({:?}): R_{name}({t}) = {r:?}\n{}",
                m.file,
                m.mutations,
                m.source
            );
        }
        for t in [-1.0, f64::NAN, f64::INFINITY] {
            let r = no_panic(m, "reliability", || set.reliability(name, t))?;
            prop_assert!(
                r.is_none(),
                "{} ({:?}): R_{name}({t}) = {r:?}\n{}",
                m.file,
                m.mutations,
                m.source
            );
        }
        no_panic(m, "markov_mttf", || set.markov_mttf(name))?;
    }
    Ok(())
}

#[test]
fn sharpe_mutants_never_panic_and_stay_in_range() {
    let models = models();
    Suite::new(0x5EED_2005).cases(64).check(
        "sharpe_mutants_never_panic_and_stay_in_range",
        |r: &mut TkRng| arb_mutant(&models, r),
        check_mutant,
    );
}

/// The one-bind change that made `reliability("cu", 8760)` hang: every
/// `unmasked` rate grows past the bound, and the first `trans` using it is
/// named.
#[test]
fn a_huge_binding_is_caught_at_the_first_rate_it_reaches() {
    let source = include_str!("../../../models/bbw_nlft_degraded.sharpe");
    let mutated = source.replace("bind p_t      0.90", "bind p_t      -1e308");
    assert_ne!(mutated, source, "the model still binds p_t to 0.90");
    let e = lang::parse(&mutated).unwrap_err();
    let line = mutated.lines().nth(e.line - 1).unwrap();
    assert!(
        line.trim_start().starts_with("trans pdown failed"),
        "{e}: {line}"
    );
    assert!(e.message.contains("exceeds the bound"), "{e}");
}
