//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! cargo run --release -p nlft-bench --bin paper_figures [--csv] [--json] [--trials N] [--reps N]
//! ```
//!
//! `--json` prints one machine-readable document with every figure's data
//! instead of the human tables; the layout matches the old serde-derived
//! artifacts field for field.

use nlft_bench::{ablation, fig12, fig13, fig14, report, rta, table1, xcheck};
use nlft_core::policy::NodePolicy;
use nlft_testkit::json::{Json, ToJson};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let csv = args.iter().any(|a| a == "--csv");
    let trials = flag_value(&args, "--trials").unwrap_or(20_000);
    let reps = flag_value(&args, "--reps").unwrap_or(20_000);

    if args.iter().any(|a| a == "--json") {
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

fn flag_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}
