//! Campaign benchmark over the scenario zoo.
//!
//! One process runs one workload: it reads, parses and compiles the
//! workload's zoo files, gates every scenario on its own acceptance
//! clause, then for `--seconds` runs timed rounds. Each round sets the
//! workload up once more, runs every scaled campaign at `nproc` workers
//! and at 1 worker, and replays one-trial campaigns; the end-to-end
//! metrics follow. `--trace 1` records spans around every call instead,
//! adds the layer probes, and prints the per-layer metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cluster-zoo --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--workload all` runs every workload, each in a process of its own.
//! The last line of a single-workload run is a JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when any correctness check failed.
//!
//! Timings are the fastest of samples spread over the run: on a shared
//! host, speed can halve for seconds at a time, and the fastest sample
//! of a repeated, identical piece of work is the figure that repeats.

mod probes;
mod split;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use nlft_bbw::scenario::{
    check_accept, compile, run_compiled, run_scenario, CompileError, ScenarioOutcome,
};
use nlft_reliability::scenario::ScenarioSpec;

use crate::stats::{median, parse_vm_hwm_mib, percentile};
use crate::trace::Tracer;
use crate::workload::Workload;

/// The workload seed the scaled-digest pins hold for.
const DEFAULT_SEED: u64 = 2005;
/// Fewest timed rounds per run.
const MIN_ROUNDS: usize = 6;
/// Replay inputs of a traced run.
const TRACED_REPLAYS: usize = 216;
/// Share of `--seconds` a traced run spends on the timed rounds; the
/// layer probes get most of the rest.
const TRACED_ROUND_SHARE: f64 = 0.45;
const TRACED_PROBE_SHARE: f64 = 0.4;
/// The split probe runs every cluster-zoo scenario at this multiple of
/// its own trials, once per pass.
const SPLIT_FACTOR: u64 = 2;
/// Interleaved passes over the layer probes and the split campaigns.
const PASSES: usize = 3;
/// Target length of one calibrated engine campaign at one worker.
const CALIBRATED_SECONDS: f64 = 0.2;

/// Scaled-campaign digests at [`DEFAULT_SEED`]: `workload scenario
/// factor digest` per line.
const PINS: &str = include_str!("../pins.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    zoo: PathBuf,
    print_pins: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        zoo: PathBuf::from("scenarios"),
        print_pins: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--zoo" => args.zoo = PathBuf::from(value()?),
            "--print-pins" => args.print_pins = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Trials attempted and failed, with what went wrong.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    /// Books one campaign of `expected` trials. Trials missing from the
    /// outcome failed; a failed check, or a campaign that could not
    /// start, fails every trial of the campaign.
    fn book(
        &mut self,
        label: &str,
        expected: u64,
        outcome: &Result<ScenarioOutcome, CompileError>,
        problems: Vec<String>,
    ) {
        self.attempted += expected;
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                self.failed += expected;
                self.problems.push(format!("{label}: {e}"));
                return;
            }
        };
        let missing = expected.saturating_sub(outcome.trials);
        if !problems.is_empty() {
            self.failed += expected;
            self.problems
                .push(format!("{label}: {}", problems.join("; ")));
        } else if missing > 0 {
            self.failed += missing;
            self.problems
                .push(format!("{label}: {missing} trials missing"));
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn pins_for(workload: &Workload) -> BTreeMap<String, u32> {
    PINS.lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f[..] {
                [w, scenario, factor, digest]
                    if w == workload.name && factor == workload.factor.to_string() =>
                {
                    let digest = u32::from_str_radix(digest.trim_start_matches("0x"), 16).ok()?;
                    Some((scenario.to_string(), digest))
                }
                _ => None,
            }
        })
        .collect()
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One set-up: read, parse and compile the workload's files, then one
/// untimed warm-up trial per scenario.
fn set_up(
    tr: &mut Tracer,
    zoo: &Path,
    w: &Workload,
    ledger: &mut Ledger,
) -> Result<Vec<ScenarioSpec>, String> {
    tr.span("setup", 1, |tr| {
        let specs = workload::load(zoo, w, tr)?;
        for spec in &specs {
            let mut one = spec.clone();
            one.trials = 1;
            one.accept = Default::default();
            let out = tr.span("warmup", 1, |_| run_scenario(&one, 1));
            ledger.book(&format!("{} warm-up", spec.name), 1, &out, Vec::new());
        }
        Ok(specs)
    })
}

/// Runs `spec` at `workers` inside a span, returning the outcome and
/// the wall time.
fn timed_campaign(
    tr: &mut Tracer,
    span: &str,
    spec: &ScenarioSpec,
    workers: usize,
) -> (Result<ScenarioOutcome, CompileError>, Duration) {
    let t = Instant::now();
    let out = tr.span(span, spec.trials, |_| run_scenario(spec, workers));
    (out, t.elapsed())
}

/// Trials per second of campaigns `specs` given each one's fastest
/// time in seconds.
fn rate(specs: &[ScenarioSpec], best: &[f64]) -> f64 {
    let trials: u64 = specs.iter().map(|s| s.trials).sum();
    trials as f64 / best.iter().sum::<f64>()
}

/// One metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Report {
    ledger: Ledger,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn run_workload(started: Instant, args: &Args, w: Workload) -> Result<Report, String> {
    let workers = nproc();
    let mut tr = Tracer::new(args.trace);
    let mut ledger = Ledger::default();

    // The first set-up is timed from process start; every round sets up
    // once more, so set-up samples spread over the run like the rest.
    let specs = set_up(&mut tr, &args.zoo, &w, &mut ledger)?;
    let mut best_setup = started.elapsed().as_secs_f64();
    let mut setups = 1;

    // Gate: every scenario at its own trial count passes its pins.
    for spec in &specs {
        let out = tr.span("gate", spec.trials, |_| run_scenario(spec, workers));
        let problems = out
            .as_ref()
            .map(|o| check_accept(spec, o))
            .unwrap_or_default();
        ledger.book(&format!("{} gate", spec.name), spec.trials, &out, problems);
    }

    // Timed rounds: a set-up, every scaled campaign at nproc and at 1
    // worker (which goes first alternates), then a slice of the replays.
    let pins = (args.seed == DEFAULT_SEED).then(|| pins_for(&w));
    let scaled: Vec<ScenarioSpec> = specs
        .iter()
        .map(|s| workload::scaled(s, w.factor, args.seed))
        .collect();
    let share = if args.trace { TRACED_ROUND_SHARE } else { 1.0 };
    let budget = Duration::from_secs_f64(args.seconds * share);
    let mut best_nw = vec![f64::INFINITY; scaled.len()];
    let mut best_1w = vec![f64::INFINITY; scaled.len()];
    // A traced run reports no replay metric; its replays only appear in
    // the trace, and a short set keeps the trace small.
    let replays = if args.trace {
        w.replays.min(TRACED_REPLAYS)
    } else {
        w.replays
    };
    let mut best_replay = vec![f64::INFINITY; replays];
    let mut first: Vec<Option<ScenarioOutcome>> = vec![None; scaled.len()];
    let mut rounds = 0;
    let timed = Instant::now();
    while rounds < MIN_ROUNDS || timed.elapsed() < budget {
        let r = rounds;
        tr.span("round", 0, |tr| {
            if r > 0 {
                let t = Instant::now();
                set_up(tr, &args.zoo, &w, &mut ledger)?;
                best_setup = best_setup.min(t.elapsed().as_secs_f64());
                setups += 1;
            }
            for (i, spec) in scaled.iter().enumerate() {
                let nw_span = format!("campaign.nw/{}", spec.name);
                let w1_span = format!("campaign.1w/{}", spec.name);
                let ((nw, t_nw), (w1, t_w1)) = if (r + i) % 2 == 0 {
                    let nw = timed_campaign(tr, &nw_span, spec, workers);
                    (nw, timed_campaign(tr, &w1_span, spec, 1))
                } else {
                    let w1 = timed_campaign(tr, &w1_span, spec, 1);
                    (timed_campaign(tr, &nw_span, spec, workers), w1)
                };
                best_nw[i] = best_nw[i].min(t_nw.as_secs_f64());
                best_1w[i] = best_1w[i].min(t_w1.as_secs_f64());
                let mut problems = Vec::new();
                if let (Ok(a), Ok(b)) = (&nw, &w1) {
                    if a != b {
                        problems.push(format!(
                            "outcome at {workers} workers differs from 1 worker"
                        ));
                    }
                    match &first[i] {
                        Some(f) if f != a => problems.push("outcome differs from round 0".into()),
                        Some(_) => {}
                        None => first[i] = Some(a.clone()),
                    }
                    match pins.as_ref().map(|p| p.get(&spec.name)) {
                        Some(Some(&pin)) if pin != a.digest => problems.push(format!(
                            "scaled digest 0x{:08x} does not match pin 0x{pin:08x}",
                            a.digest
                        )),
                        Some(None) => problems.push("no scaled-digest pin".into()),
                        _ => {}
                    }
                }
                let label = format!("{} x{}", spec.name, w.factor);
                ledger.book(
                    &format!("{label} at {workers} workers"),
                    spec.trials,
                    &nw,
                    problems.clone(),
                );
                ledger.book(&format!("{label} at 1 worker"), spec.trials, &w1, problems);
            }
            for (j, best) in best_replay.iter_mut().enumerate() {
                if j % w.replay_slices != r % w.replay_slices {
                    continue;
                }
                let spec = &workload::replay(&specs, args.seed, j as u64);
                let t = Instant::now();
                let out = tr.span("replay", 1, |tr| {
                    let compiled = tr.span("replay.compile", 1, |_| compile(spec, 1))?;
                    Ok(tr.span("replay.run", 1, |_| run_compiled(&spec.name, &compiled)))
                });
                *best = best.min(t.elapsed().as_secs_f64());
                ledger.book(&format!("{} replay {j}", spec.name), 1, &out, Vec::new());
            }
            Ok::<_, String>(())
        })?;
        rounds += 1;
    }
    if args.print_pins {
        for (spec, outcome) in scaled.iter().zip(&first) {
            if let Some(o) = outcome {
                println!("{} {} {} 0x{:08x}", w.name, spec.name, w.factor, o.digest);
            }
        }
    }

    let mut notes = vec![
        format!(
            "workers {workers}, rounds {rounds}, {} replay inputs, {} set-ups",
            replays, setups
        ),
        format!(
            "trials_failed_frac {} ratio",
            ledger.failed as f64 / ledger.attempted.max(1) as f64
        ),
    ];
    let metrics = if args.trace {
        let metrics = traced_metrics(&mut tr, args, &w, &specs, &scaled, workers, &mut ledger)?;
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
        let path = dir.join(format!("{}-seed{}.tsv", w.name, args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tr.render(w.name)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans written to {}",
            tr.spans().len(),
            path.display()
        ));
        metrics
    } else {
        let replay_ms: Vec<f64> = best_replay.iter().map(|s| s * 1e3).collect();
        let p = |q| percentile(&replay_ms, q).expect("enough replay inputs for the percentile");
        vec![
            ("trials_per_s", rate(&scaled, &best_nw), "trials/s"),
            ("trials_per_s_1w", rate(&scaled, &best_1w), "trials/s"),
            ("replay_ms_p50", p(0.50), "ms"),
            ("replay_ms_p95", p(0.95), "ms"),
            ("setup_s", best_setup, "s"),
            ("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ]
    };
    Ok(Report {
        ledger,
        metrics,
        notes,
    })
}

/// Fastest per-operation time of the spans named `name`, in µs.
fn us(tr: &Tracer, name: &str) -> f64 {
    ns(tr, name) / 1e3
}

/// Fastest per-operation time of the spans named `name`, in ns.
fn ns(tr: &Tracer, name: &str) -> f64 {
    tr.ns_per_op(name).into_iter().fold(f64::NAN, f64::min)
}

/// Trials per second of the traced campaigns under `prefix`, from each
/// scenario's fastest span.
fn traced_rate(tr: &Tracer, prefix: &str, scaled: &[ScenarioSpec]) -> f64 {
    let trials: u64 = scaled.iter().map(|s| s.trials).sum();
    let best_s: f64 = scaled
        .iter()
        .map(|s| ns(tr, &format!("{prefix}/{}", s.name)) * s.trials as f64 / 1e9)
        .sum();
    trials as f64 / best_s
}

/// The layer probes, the cluster-trial split and the calibrated engine
/// campaign, all measured from spans.
fn traced_metrics(
    tr: &mut Tracer,
    args: &Args,
    w: &Workload,
    specs: &[ScenarioSpec],
    scaled: &[ScenarioSpec],
    workers: usize,
    ledger: &mut Ledger,
) -> Result<Vec<Metric>, String> {
    // The split always describes a cluster-zoo trial; other workloads
    // load those files untraced so their own parse spans stay clean.
    let cluster_specs = if w.name == workload::CLUSTER_ZOO.name {
        specs.to_vec()
    } else {
        workload::load(&args.zoo, &workload::CLUSTER_ZOO, &mut Tracer::new(false))?
    };
    let split_specs: Vec<ScenarioSpec> = cluster_specs
        .iter()
        .map(|s| workload::scaled(s, SPLIT_FACTOR, args.seed))
        .collect();

    // Probes and split campaigns interleave in passes, so a slow spell
    // on the host touches a share of each rather than all of one.
    let probe_budget = Duration::from_secs_f64(
        args.seconds * TRACED_PROBE_SHARE / (probes::PROBES * PASSES) as f64,
    );
    for _ in 0..PASSES {
        probes::run_all(tr, probe_budget, workers);
        for spec in &split_specs {
            let name = format!("split.campaign/{}", spec.name);
            let out = tr.span(&name, spec.trials, |_| run_scenario(spec, 1));
            ledger.book(
                &format!("{} split", spec.name),
                spec.trials,
                &out,
                Vec::new(),
            );
        }
    }

    // A campaign whose trials spin for the workload's median trial time.
    let trial_ns = median(
        &scaled
            .iter()
            .map(|s| ns(tr, &format!("campaign.1w/{}", s.name)))
            .collect::<Vec<_>>(),
    )
    .ok_or("the workload has no scenarios")?;
    const CAL_ROUNDS: u64 = 1 << 20;
    for _ in 0..PASSES {
        tr.span("calibrated.spin", CAL_ROUNDS, |_| {
            std::hint::black_box(probes::spin(1, CAL_ROUNDS))
        });
    }
    let spin_rounds = (trial_ns / ns(tr, "calibrated.spin")).max(1.0) as u64;
    let cal_trials = (CALIBRATED_SECONDS * 1e9 / trial_ns).clamp(100.0, 1e6) as u64;
    for _ in 0..PASSES {
        tr.span_counted("calibrated.1w", |_| {
            ((), probes::spin_trials(cal_trials, spin_rounds, 1))
        });
        tr.span_counted("calibrated.nw", |_| {
            ((), probes::spin_trials(cal_trials, spin_rounds, workers))
        });
    }

    let warm_ns_per_instr = ns(tr, "probe.machine.run_warm");
    let costs = split::UnitCosts {
        build_us: us(tr, "probe.bbw.cluster_build"),
        golden_run_us: us(tr, "probe.machine.golden_run"),
        instantiate_us: us(tr, "probe.machine.instantiate"),
        tem_job_us: us(tr, "probe.kernel.tem_clean"),
        machine_job_us: probes::instructions_per_tem_job() * warm_ns_per_instr / 1e3,
        bus_cycle_us: us(tr, "probe.net.bus_cycle"),
        bus_cycle_storm_us: us(tr, "probe.net.bus_cycle_storm"),
        engine_trial_us: us(tr, "probe.engine.trial_1w"),
    };
    let loads: Vec<split::ScenarioLoad> = split_specs
        .iter()
        .filter_map(|spec| {
            let (cycles, storm) = workload::cluster_shape(spec)?;
            Some(split::ScenarioLoad {
                trials: spec.trials as f64,
                trial_us: us(tr, &format!("split.campaign/{}", spec.name)),
                cycles: f64::from(cycles),
                storm,
            })
        })
        .collect();
    let s = split::split(&costs, &loads).ok_or("the split probe measured no trial time")?;

    let tps_nw = traced_rate(tr, "campaign.nw", scaled);
    let tps_1w = traced_rate(tr, "campaign.1w", scaled);
    let n = workers as f64;
    Ok(vec![
        ("reliability.parse_us", us(tr, "parse"), "us"),
        ("bbw.compile_us", us(tr, "compile"), "us"),
        ("bbw.cluster_build_us", costs.build_us, "us"),
        (
            "bbw.cluster_cycle_clean_us",
            us(tr, "probe.bbw.cluster_cycle_clean"),
            "us",
        ),
        (
            "bbw.cluster_cycle_storm_us",
            us(tr, "probe.bbw.cluster_cycle_storm"),
            "us",
        ),
        ("machine.golden_run_us", costs.golden_run_us, "us"),
        ("machine.instantiate_us", costs.instantiate_us, "us"),
        (
            "machine.minstr_per_s_warm",
            1e3 / warm_ns_per_instr,
            "Minstr/s",
        ),
        (
            "machine.minstr_per_s_cold",
            1e3 / ns(tr, "probe.machine.run_cold"),
            "Minstr/s",
        ),
        ("kernel.tem_clean_us", costs.tem_job_us, "us"),
        (
            "kernel.tem_recover_us",
            us(tr, "probe.kernel.tem_recover"),
            "us",
        ),
        (
            "kernel.command_accept_ns",
            ns(tr, "probe.kernel.command_accept"),
            "ns",
        ),
        (
            "kernel.multicore_run_us",
            us(tr, "probe.kernel.multicore_run"),
            "us",
        ),
        (
            "kernel.wh_analyse_us",
            us(tr, "probe.kernel.wh_analyse"),
            "us",
        ),
        ("net.bus_cycle_us", costs.bus_cycle_us, "us"),
        ("net.bus_cycle_storm_us", costs.bus_cycle_storm_us, "us"),
        (
            "sim.crc32_ns_per_word",
            ns(tr, "probe.sim.crc32_word"),
            "ns/word",
        ),
        ("sim.rng_fork_ns", ns(tr, "probe.sim.rng_fork"), "ns"),
        ("sim.wh_record_ns", ns(tr, "probe.sim.wh_record"), "ns"),
        (
            "engine.trial_overhead_ns_1w",
            ns(tr, "probe.engine.trial_1w"),
            "ns",
        ),
        (
            "engine.trial_overhead_ns_nw",
            ns(tr, "probe.engine.trial_nw"),
            "ns",
        ),
        (
            "engine.campaign_fixed_us",
            us(tr, "probe.engine.campaign_fixed"),
            "us",
        ),
        ("engine.scaling_eff", tps_nw / (n * tps_1w), "ratio"),
        (
            "engine.calibrated_eff",
            ns(tr, "calibrated.1w") / (n * ns(tr, "calibrated.nw")),
            "ratio",
        ),
        ("split.build_frac", s.build, "ratio"),
        ("split.machine_frac", s.machine, "ratio"),
        ("split.kernel_frac", s.kernel, "ratio"),
        ("split.net_frac", s.net, "ratio"),
        ("split.bbw_frac", s.bbw, "ratio"),
        ("split.engine_frac", s.engine, "ratio"),
        ("trace.trials_per_s", tps_nw, "trials/s"),
        ("trace.trials_per_s_1w", tps_1w, "trials/s"),
    ])
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.ledger.failed == 0,
        report.ledger.attempted,
        report.ledger.failed,
        metrics.join(", ")
    )
}

/// Runs every workload in a child process of its own, in turn.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in workload::ALL {
        println!("== {} ==", w.name);
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--zoo")
            .arg(&args.zoo);
        if args.print_pins {
            cmd.arg("--print-pins");
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perfbench: workload {} failed ({status})", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run workload {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = workload::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    let report = match run_workload(started, &args, w) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} trace {}",
        w.name,
        args.seed,
        u8::from(args.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name} {value} {unit}");
    }
    for problem in &report.ledger.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    println!("{}", result_json(&report));
    if report.ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
