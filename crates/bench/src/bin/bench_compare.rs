//! Bench-trajectory driver: snapshot a baseline, or compare against it.
//!
//! ```text
//! cargo run --release -p nlft-bench --bin bench_compare -- snapshot [--out PATH]
//! cargo run --release -p nlft-bench --bin bench_compare -- compare [--baseline PATH]
//! ```
//!
//! Both modes read the `BENCH_<group>.json` artifacts that `cargo bench`
//! leaves under `<target>/testkit/` (or `NLFT_BENCH_OUT`). `snapshot`
//! merges them — together with the golden Figure 12 digest — into one
//! baseline document (default `BENCH_BASELINE.json`). `compare` prints a
//! ratio table against the baseline: timing slowdowns are warnings only
//! (hardware varies), but golden-digest drift exits nonzero — the
//! optimisations this trajectory tracks must be bit-invisible.
//!
//! A missing or unknown mode, an unknown flag or a missing path is an
//! error: the binary prints usage and exits with status 2.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use nlft_bench::cli::{unknown_flag, ArgCursor};
use nlft_bench::trajectory;
use nlft_testkit::bench::artifact_path;
use nlft_testkit::json::Json;

const USAGE: &str = "usage: bench_compare snapshot [--out PATH] | compare [--baseline PATH]";

/// A parsed command line: the mode and its one path.
#[derive(Debug, PartialEq, Eq)]
enum Mode {
    Snapshot(PathBuf),
    Compare(PathBuf),
}

/// Parses the arguments after the program name.
fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut it = ArgCursor::new(args);
    let (mode, path_flag): (fn(PathBuf) -> Mode, &str) = match it.next() {
        Some("snapshot") => (Mode::Snapshot, "--out"),
        Some("compare") => (Mode::Compare, "--baseline"),
        Some(other) => return Err(format!("unknown mode `{other}`")),
        None => return Err("missing mode".to_string()),
    };
    let mut path = PathBuf::from("BENCH_BASELINE.json");
    while let Some(arg) = it.next() {
        if arg != path_flag {
            return Err(unknown_flag(arg));
        }
        path = PathBuf::from(it.value(arg)?);
    }
    Ok(mode(path))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Mode::Snapshot(out)) => snapshot(&out),
        Ok(Mode::Compare(baseline)) => compare(&baseline),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Collects every `BENCH_*.json` group report from the artifact directory.
fn fresh_reports() -> Vec<Json> {
    let dir = artifact_path("probe");
    let Some(dir) = dir.parent() else {
        return Vec::new();
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut reports = Vec::new();
    let mut names: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    names.sort();
    for path in names {
        match std::fs::read_to_string(&path).map_err(|e| e.to_string()) {
            Ok(text) => match Json::parse(&text) {
                Ok(doc) if doc.get("group").is_some() => reports.push(doc),
                Ok(_) => eprintln!("skipping {} (no group field)", path.display()),
                Err(e) => eprintln!("skipping {} ({e})", path.display()),
            },
            Err(e) => eprintln!("skipping {} ({e})", path.display()),
        }
    }
    reports
}

fn snapshot(out: &Path) -> ExitCode {
    let reports = fresh_reports();
    if reports.is_empty() {
        eprintln!(
            "no BENCH_*.json artifacts found — run `cargo bench -p nlft-bench` first \
             (artifacts land under <target>/testkit/ or $NLFT_BENCH_OUT)"
        );
        return ExitCode::FAILURE;
    }
    let doc = trajectory::merge_baseline(reports);
    let groups = doc
        .get("groups")
        .and_then(Json::as_arr)
        .map_or(0, <[_]>::len);
    match std::fs::write(out, format!("{doc}\n")) {
        Ok(()) => {
            println!(
                "baseline with {groups} group(s) written to {}",
                out.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("could not write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}

fn compare(baseline_path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("could not read {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    let baseline = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("could not parse {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    let cmp = trajectory::compare(&baseline, &fresh_reports());
    print!("{}", cmp.render());
    if cmp.golden_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Mode, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn modes_take_their_own_path_flag() {
        let default = PathBuf::from("BENCH_BASELINE.json");
        assert_eq!(parse("compare"), Ok(Mode::Compare(default.clone())));
        assert_eq!(parse("snapshot"), Ok(Mode::Snapshot(default)));
        assert_eq!(
            parse("compare --baseline b.json"),
            Ok(Mode::Compare(PathBuf::from("b.json")))
        );
        assert_eq!(
            parse("snapshot --out s.json"),
            Ok(Mode::Snapshot(PathBuf::from("s.json")))
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert_eq!(parse(""), Err("missing mode".into()));
        assert_eq!(parse("diff"), Err("unknown mode `diff`".into()));
        assert_eq!(parse("compare --out x"), Err("unknown flag `--out`".into()));
        assert_eq!(parse("snapshot --out"), Err("`--out` needs a value".into()));
    }
}
