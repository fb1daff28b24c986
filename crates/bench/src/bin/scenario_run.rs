//! Scenario-zoo runner: list, run and verify the declarative fault
//! campaigns under `scenarios/`.
//!
//! ```text
//! cargo run --release --bin scenario_run -- list [filter]
//! cargo run --release --bin scenario_run -- run [filter] [--threads N]
//!     [--trial-budget-ms N]
//!     [--checkpoint FILE [--checkpoint-every N]] [--resume FILE]
//! cargo run --release --bin scenario_run -- verify [filter]
//! cargo run --release --bin scenario_run -- pin [filter]
//! ```
//!
//! * `list` — names, families and trial counts, optionally filtered by
//!   substring.
//! * `run` — run matching scenarios, print their verdict/metric
//!   counters and digests, and check each acceptance clause; exits
//!   non-zero if any clause fails. Engine flags (cluster family only):
//!   `--trial-budget-ms` arms the per-trial watchdog, which runs the
//!   work-stealing executor even at `--threads 1` (the digest does not
//!   change), `--checkpoint FILE` streams resumable checkpoints to a
//!   file every `--checkpoint-every` trials, and `--resume FILE`
//!   continues a previously checkpointed run.
//! * `verify` — the CI gate: every matching scenario runs at 1, 2 and
//!   5 threads; the three outcomes must be bit-identical and match the
//!   scenario's `pin`. Fails hard on drift or a missing pin.
//! * `pin` — print the `pin 0x…` line for each scenario (for authoring
//!   new zoo entries).
//!
//! An unknown flag, a second filter, or a missing or malformed flag
//! value is an error: the runner names the offending argument and
//! exits with status 2.

use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use nlft_bbw::scenario::{
    check_accept, run_scenario, run_scenario_with, ScenarioEngineOptions, ScenarioOutcome,
};
use nlft_reliability::scenario::{parse_scenario, ScenarioSpec};

/// The `scenarios/` directory at the workspace root.
fn zoo_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("scenarios")
}

/// Loads every `*.scn` file, sorted by file name for a stable order.
fn load_zoo(filter: Option<&str>) -> Result<Vec<(PathBuf, ScenarioSpec)>, String> {
    let dir = zoo_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "scn"))
        .collect();
    paths.sort();
    let mut zoo = Vec::new();
    for path in paths {
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let spec = parse_scenario(&source).map_err(|e| format!("{}: {e}", path.display()))?;
        if filter.is_none_or(|f| spec.name.contains(f)) {
            zoo.push((path, spec));
        }
    }
    Ok(zoo)
}

fn print_outcome(outcome: &ScenarioOutcome) {
    println!(
        "  trials {}  digest 0x{:08x}",
        outcome.trials, outcome.digest
    );
    let verdicts: Vec<String> = outcome
        .verdicts
        .iter()
        .filter(|&&(_, v)| v > 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("  verdicts: {}", verdicts.join("  "));
}

fn cmd_list(zoo: &[(PathBuf, ScenarioSpec)]) {
    for (path, spec) in zoo {
        println!(
            "{:<32} {:<12} trials {:<6} {}",
            spec.name,
            spec.params.family(),
            spec.trials,
            path.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
        );
    }
    println!("{} scenarios", zoo.len());
}

/// Engine flags collected from the command line (cluster family only).
#[derive(Debug, Default, PartialEq)]
struct EngineFlags {
    trial_budget_ms: Option<u64>,
    checkpoint: Option<PathBuf>,
    checkpoint_every: u64,
    resume: Option<PathBuf>,
}

impl EngineFlags {
    fn active(&self) -> bool {
        self.trial_budget_ms.is_some() || self.checkpoint.is_some() || self.resume.is_some()
    }
}

fn cmd_run(zoo: &[(PathBuf, ScenarioSpec)], threads: usize, flags: &EngineFlags) -> bool {
    let mut ok = true;
    for (_, spec) in zoo {
        println!("== {} ({})", spec.name, spec.params.family());
        if flags.active() && spec.params.family() != "cluster" {
            println!("  skipped: engine flags apply to cluster-family scenarios only");
            continue;
        }
        let resume = match &flags.resume {
            Some(path) => match std::fs::read_to_string(path) {
                Ok(text) => Some(text),
                Err(e) => {
                    ok = false;
                    println!("  resume FAILED: cannot read {}: {e}", path.display());
                    continue;
                }
            },
            None => None,
        };
        let sink = flags.checkpoint.clone();
        let written = RefCell::new(0u64);
        let save = |done: u64, encoded: String| {
            let path = sink.as_ref().expect("callback only wired with a sink");
            if let Err(e) = std::fs::write(path, encoded) {
                eprintln!("  checkpoint write FAILED at trial {done}: {e}");
            } else {
                *written.borrow_mut() += 1;
            }
        };
        let opts = ScenarioEngineOptions {
            trial_budget: flags.trial_budget_ms.map(Duration::from_millis),
            resume,
            checkpoint_every: if flags.checkpoint.is_some() {
                // A handful of snapshots per run unless the user pinned a cadence.
                if flags.checkpoint_every > 0 {
                    flags.checkpoint_every
                } else {
                    (spec.trials / 8).max(1)
                }
            } else {
                0
            },
            on_checkpoint: flags.checkpoint.is_some().then_some(&save as _),
        };
        match run_scenario_with(spec, threads, &opts) {
            Ok(outcome) => {
                print_outcome(&outcome);
                if let Some(path) = &flags.checkpoint {
                    println!(
                        "  checkpoints: {} written to {}",
                        written.borrow(),
                        path.display()
                    );
                }
                let failures = check_accept(spec, &outcome);
                if failures.is_empty() {
                    println!("  accept: ok");
                } else {
                    ok = false;
                    for f in &failures {
                        println!("  accept FAILED: {f}");
                    }
                }
            }
            Err(e) => {
                ok = false;
                println!("  compile FAILED: {e}");
            }
        }
    }
    ok
}

/// The CI gate: bit-identical at 1/2/5 threads and equal to the pin.
fn cmd_verify(zoo: &[(PathBuf, ScenarioSpec)]) -> bool {
    let mut ok = true;
    for (path, spec) in zoo {
        let outcomes: Vec<ScenarioOutcome> = match [1usize, 2, 5]
            .iter()
            .map(|&t| run_scenario(spec, t))
            .collect::<Result<_, _>>()
        {
            Ok(v) => v,
            Err(e) => {
                println!("FAIL {:<32} compile error: {e}", spec.name);
                ok = false;
                continue;
            }
        };
        if outcomes[0] != outcomes[1] || outcomes[0] != outcomes[2] {
            println!(
                "FAIL {:<32} thread-count drift: 0x{:08x} / 0x{:08x} / 0x{:08x}",
                spec.name, outcomes[0].digest, outcomes[1].digest, outcomes[2].digest
            );
            ok = false;
            continue;
        }
        let outcome = &outcomes[0];
        let failures = check_accept(spec, outcome);
        match spec.accept.pin {
            None => {
                println!(
                    "FAIL {:<32} unpinned (add `pin 0x{:08x}` to {})",
                    spec.name,
                    outcome.digest,
                    path.display()
                );
                ok = false;
            }
            Some(_) if failures.is_empty() => {
                println!("ok   {:<32} 0x{:08x}", spec.name, outcome.digest);
            }
            Some(_) => {
                for f in &failures {
                    println!("FAIL {:<32} {f}", spec.name);
                }
                ok = false;
            }
        }
    }
    ok
}

fn cmd_pin(zoo: &[(PathBuf, ScenarioSpec)]) -> bool {
    for (_, spec) in zoo {
        match run_scenario(spec, 1) {
            Ok(outcome) => println!("{:<32} pin 0x{:08x}", spec.name, outcome.digest),
            Err(e) => {
                println!("{:<32} compile FAILED: {e}", spec.name);
                return false;
            }
        }
    }
    true
}

/// A parsed command line.
#[derive(Debug)]
struct Args {
    command: String,
    filter: Option<String>,
    threads: usize,
    flags: EngineFlags,
}

/// Parses a flag value as a number, naming the flag on failure.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{flag}` expects a non-negative integer, got `{value}`"))
}

/// Parses the arguments after the program name. Unknown flags, a
/// second filter, and missing or malformed flag values are rejected
/// with a message naming the offending argument.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let mut parsed = Args {
        command: it.next().cloned().unwrap_or_else(|| "list".to_string()),
        filter: None,
        threads: 1,
        flags: EngineFlags::default(),
    };
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{arg}` needs a value"));
        match arg.as_str() {
            "--threads" => {
                parsed.threads = number(arg, value()?)?;
                if parsed.threads == 0 {
                    return Err("`--threads` must be at least 1".to_string());
                }
            }
            "--trial-budget-ms" => parsed.flags.trial_budget_ms = Some(number(arg, value()?)?),
            "--checkpoint" => parsed.flags.checkpoint = Some(PathBuf::from(value()?)),
            "--checkpoint-every" => parsed.flags.checkpoint_every = number(arg, value()?)?,
            "--resume" => parsed.flags.resume = Some(PathBuf::from(value()?)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            _ if parsed.filter.is_some() => {
                return Err(format!(
                    "unexpected argument `{arg}`: only one scenario filter is allowed"
                ))
            }
            _ => parsed.filter = Some(arg.clone()),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        command,
        filter,
        threads,
        flags,
    } = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let zoo = match load_zoo(filter.as_deref()) {
        Ok(zoo) => zoo,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if zoo.is_empty() {
        eprintln!("no scenarios match");
        return ExitCode::FAILURE;
    }
    let ok = match command.as_str() {
        "list" => {
            cmd_list(&zoo);
            true
        }
        "run" => cmd_run(&zoo, threads, &flags),
        "verify" => cmd_verify(&zoo),
        "pin" => cmd_pin(&zoo),
        other => {
            eprintln!("unknown command `{other}` (expected list, run, verify, pin)");
            false
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn parses_a_full_run_line() {
        let args = parse(
            "run babbling --threads 4 --trial-budget-ms 250 \
             --checkpoint ck --checkpoint-every 3 --resume ck",
        )
        .expect("valid line");
        assert_eq!(args.command, "run");
        assert_eq!(args.filter.as_deref(), Some("babbling"));
        assert_eq!(args.threads, 4);
        assert_eq!(
            args.flags,
            EngineFlags {
                trial_budget_ms: Some(250),
                checkpoint: Some(PathBuf::from("ck")),
                checkpoint_every: 3,
                resume: Some(PathBuf::from("ck")),
            }
        );
        let bare = parse("").expect("empty line lists");
        assert_eq!((bare.command.as_str(), bare.threads), ("list", 1));
    }

    #[test]
    fn rejects_unknown_flags_by_name() {
        let e = parse("run babbling-wheel --sequential").unwrap_err();
        assert!(e.contains("unknown flag `--sequential`"), "{e}");
        let e = parse("run -t 2").unwrap_err();
        assert!(e.contains("`-t`"), "{e}");
    }

    #[test]
    fn rejects_a_second_filter() {
        let e = parse("run babbling wheel").unwrap_err();
        assert!(e.contains("`wheel`"), "{e}");
    }

    #[test]
    fn rejects_missing_flag_values() {
        for flag in [
            "--threads",
            "--trial-budget-ms",
            "--checkpoint",
            "--checkpoint-every",
            "--resume",
        ] {
            let e = parse(&format!("run {flag}")).unwrap_err();
            assert!(e.contains(&format!("`{flag}` needs a value")), "{e}");
        }
    }

    #[test]
    fn rejects_malformed_numbers() {
        for flag in ["--threads", "--trial-budget-ms", "--checkpoint-every"] {
            for bad in ["x", "-1", "1.5"] {
                let e = parse(&format!("run {flag} {bad}")).unwrap_err();
                assert!(e.contains(&format!("`{flag}` expects")), "{e}");
            }
        }
        let e = parse("run --threads 0").unwrap_err();
        assert!(e.contains("`--threads` must be at least 1"), "{e}");
    }
}
