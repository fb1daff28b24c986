//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! cargo run --release -p nlft-bench --bin paper_figures [--csv] [--json] [--trials N] [--reps N]
//! ```
//!
//! `--json` prints one machine-readable document with every figure's data
//! instead of the human tables; the layout matches the old serde-derived
//! artifacts field for field.
//!
//! `--trials` and `--reps` default to 20 000 and must be at least 1. An
//! unknown flag or a missing, malformed or zero count is an error: the
//! binary names the offending argument and exits with status 2.

use nlft_bench::cli::{unknown_flag, ArgCursor};
use nlft_bench::{ablation, fig12, fig13, fig14, report, rta, table1, xcheck};
use nlft_core::policy::NodePolicy;
use nlft_testkit::json::{Json, ToJson};

/// A parsed command line.
#[derive(Debug, PartialEq, Eq)]
struct Options {
    csv: bool,
    json: bool,
    trials: u64,
    reps: u64,
}

/// Parses the arguments after the program name.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        csv: false,
        json: false,
        trials: 20_000,
        reps: 20_000,
    };
    let mut it = ArgCursor::new(args);
    while let Some(arg) = it.next() {
        match arg {
            "--csv" => opts.csv = true,
            "--json" => opts.json = true,
            "--trials" => opts.trials = it.positive(arg)?,
            "--reps" => opts.reps = it.positive(arg)?,
            flag if flag.starts_with('-') => return Err(unknown_flag(flag)),
            _ => return Err(format!("unexpected argument `{arg}`")),
        }
    }
    Ok(opts)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        csv,
        json,
        trials,
        reps,
    } = match parse_args(&argv) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if json {
        let doc = Json::obj([
            ("fig12", fig12::generate().to_json()),
            ("fig13", fig13::generate().to_json()),
            ("fig14", fig14::generate().to_json()),
            ("xcheck", xcheck::generate(reps, 0x5EED).to_json()),
            (
                "slack_ablation",
                ablation::slack_pressure(trials.min(5_000), 0xAB1A).to_json(),
            ),
            (
                "ecc_ablation",
                ablation::ecc(trials.min(5_000), 0xECC).to_json(),
            ),
            ("rta", rta::generate().to_json()),
        ]);
        println!("{doc}");
        return;
    }

    print!(
        "{}",
        report::heading("Figure 12 — BBW system reliability over one year")
    );
    let curves = fig12::generate();
    let series: Vec<(String, Vec<(f64, f64)>)> = curves
        .iter()
        .map(|c| (c.label.clone(), c.points.clone()))
        .collect();
    print!(
        "{}",
        if csv {
            report::series_csv("t_hours", &series)
        } else {
            report::series_table("t_hours", &series)
        }
    );
    println!("\nMTTF (years):");
    for c in &curves {
        println!("  {:<16} {:.3}", c.label, c.mttf_years);
    }
    let r = |label: &str| {
        curves
            .iter()
            .find(|c| c.label == label)
            .expect("known label")
    };
    let fs = r("FS/degraded");
    let nlft = r("NLFT/degraded");
    let r_fs = fs.points.last().expect("points").1;
    let r_nlft = nlft.points.last().expect("points").1;
    println!(
        "\nHeadline: R(1y) degraded {:.3} -> {:.3} (+{:.0}%), MTTF {:.2}y -> {:.2}y (+{:.0}%)",
        r_fs,
        r_nlft,
        (r_nlft / r_fs - 1.0) * 100.0,
        fs.mttf_years,
        nlft.mttf_years,
        (nlft.mttf_years / fs.mttf_years - 1.0) * 100.0
    );
    println!("Paper:    R(1y) degraded 0.45 -> 0.70 (+55%), MTTF 1.2y -> 1.9y (+~60%)");

    print!(
        "{}",
        report::heading("Figure 13 — subsystem reliability over one year")
    );
    let curves = fig13::generate();
    let series: Vec<(String, Vec<(f64, f64)>)> = curves
        .iter()
        .map(|c| (c.label.clone(), c.points.clone()))
        .collect();
    print!(
        "{}",
        if csv {
            report::series_csv("t_hours", &series)
        } else {
            report::series_table("t_hours", &series)
        }
    );

    print!(
        "{}",
        report::heading("Figure 14 — R(5h), degraded mode, coverage × transient-rate sweep")
    );
    let series: Vec<(String, Vec<(f64, f64)>)> = fig14::generate()
        .into_iter()
        .map(|s| (format!("{} C_D={}", s.policy, s.coverage), s.points))
        .collect();
    print!(
        "{}",
        if csv {
            report::series_csv("lambda_t_multiplier", &series)
        } else {
            report::series_table("lambda_t_multiplier", &series)
        }
    );

    print!(
        "{}",
        report::heading("Table 1 — EDM detection matrix + parameter estimation (campaign)")
    );
    for policy in [NodePolicy::LightweightNlft, NodePolicy::FailSilent] {
        let result = table1::generate(trials, 0x7AB1E, policy);
        println!("policy: {policy}  ({} injections)", result.counts.trials);
        print!("{}", result.matrix.render_table());
        println!("{result}");
        println!();
    }
    println!("Paper §3.3 assumes: C_D = 0.99, P_T = 0.90, P_OM = 0.05, P_FS = 0.05");

    print!(
        "{}",
        report::heading("Extension — Monte-Carlo cross-validation of Figure 12")
    );
    println!(
        "{:<16}{:>10}{:>12}{:>12}{:>24}",
        "config", "t (h)", "analytic", "MC", "95% CI"
    );
    for row in xcheck::generate(reps, 0x5EED) {
        println!(
            "{:<16}{:>10.0}{:>12.4}{:>12.4}      [{:.4}, {:.4}]",
            row.label, row.t_hours, row.analytic, row.monte_carlo, row.ci.0, row.ci.1
        );
    }

    print!(
        "{}",
        report::heading("Extension — slack-pressure ablation (campaign -> params -> R(1y))")
    );
    println!(
        "{:>16}{:>10}{:>10}{:>12}",
        "tight fraction", "P_T", "P_OM", "R(1 year)"
    );
    for row in ablation::slack_pressure(trials.min(5_000), 0xAB1A) {
        println!(
            "{:>16.2}{:>10.4}{:>10.4}{:>12.4}",
            row.tight_fraction, row.p_t, row.p_om, row.r_one_year
        );
    }

    print!(
        "{}",
        report::heading("Extension — ECC ablation (memory-inclusive fault space)")
    );
    println!(
        "{:<22}{:>6}{:>12}{:>10}{:>12}",
        "policy", "ECC", "coverage", "benign", "undetected"
    );
    for row in ablation::ecc(trials.min(5_000), 0xECC) {
        println!(
            "{:<22}{:>6}{:>12.4}{:>10}{:>12}",
            row.policy,
            if row.ecc { "on" } else { "off" },
            row.coverage,
            row.benign,
            row.undetected
        );
    }

    print!(
        "{}",
        report::heading("Extension — parameter sensitivity of R(t) (generalised Fig. 14)")
    );
    for (label, t) in [("t = 5 hours", 5.0), ("t = 1 year", 8_760.0)] {
        println!("{label}:");
        let rows = nlft_bbw::sensitivity::sensitivity(
            &nlft_bbw::params::BbwParams::paper(),
            nlft_bbw::analytic::Policy::Nlft,
            nlft_bbw::analytic::Functionality::Degraded,
            t,
        );
        print!("{}", nlft_bbw::sensitivity::render(&rows));
        println!();
    }

    print!(
        "{}",
        report::heading("Extension — distributed fault injection over the executable cluster")
    );
    let cfg = nlft_bbw::cluster_campaign::ClusterCampaignConfig::new(trials.min(2_000), 0xC1A5);
    let r = nlft_bbw::cluster_campaign::run_cluster_campaign(&cfg);
    println!(
        "{} cluster runs, one machine-level transient each:\n  invisible at the vehicle boundary: {} ({:.1}%)\n  omission-only episodes: {}\n  degraded-mode episodes: {}\n  braking lost: {}",
        r.trials,
        r.unaffected,
        r.masking_fraction() * 100.0,
        r.omission_only,
        r.degraded_episode,
        r.service_lost
    );

    print!(
        "{}",
        report::heading("Extension — fault-tolerant RTA slack ablation (§2.8)")
    );
    println!(
        "{:>14}{:>18}{:>26}",
        "utilisation", "TEM utilisation", "min fault interval (us)"
    );
    for row in rta::generate() {
        println!(
            "{:>14.2}{:>18.2}{:>26}",
            row.utilisation,
            row.tem_utilisation,
            row.min_fault_interval_us
                .map(|v| v.to_string())
                .unwrap_or_else(|| "unschedulable".to_string())
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Options, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn defaults_and_flags_in_any_order() {
        let defaults = Options {
            csv: false,
            json: false,
            trials: 20_000,
            reps: 20_000,
        };
        assert_eq!(parse(""), Ok(defaults));
        assert_eq!(
            parse("--reps 300 --json --trials 200 --csv"),
            Ok(Options {
                csv: true,
                json: true,
                trials: 200,
                reps: 300,
            })
        );
    }

    #[test]
    fn rejects_zero_counts() {
        for line in ["--trials 0", "--reps 0", "--json --trials 0 --reps 0"] {
            let e = parse(line).unwrap_err();
            assert!(e.ends_with("must be at least 1"), "{line}: {e}");
        }
    }

    #[test]
    fn rejects_malformed_and_missing_counts() {
        let e = parse("--trials abc").unwrap_err();
        assert!(e.contains("`--trials` expects"), "{e}");
        let e = parse("--reps").unwrap_err();
        assert!(e.contains("`--reps` needs a value"), "{e}");
    }

    #[test]
    fn rejects_unknown_flags_and_stray_arguments() {
        assert_eq!(parse("--trails 5"), Err("unknown flag `--trails`".into()));
        assert_eq!(parse("200"), Err("unexpected argument `200`".into()));
    }
}
