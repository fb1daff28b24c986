//! Integration: the full methodology pipeline of the paper —
//! fault-injection campaign → parameter estimates → analytic reliability
//! model. The measured parameters, whatever their exact values, must
//! reproduce the paper's qualitative conclusions when fed into the
//! system-level models.

use nlft::bbw::analytic::{BbwSystem, Functionality, Policy, HOURS_PER_YEAR};
use nlft::bbw::params::BbwParams;
use nlft::core::campaign::{run_campaign, CampaignConfig};
use nlft::core::policy::NodePolicy;
use nlft::engine::EngineConfig;
use nlft::reliability::model::ReliabilityModel;

/// Runs a campaign and converts its estimates into model parameters.
fn measured_params(trials: u64) -> BbwParams {
    let config = CampaignConfig::new(trials, 0x0200_5D5A, NodePolicy::LightweightNlft);
    let result = run_campaign(&config, &EngineConfig::with_workers(4));

    let c_d = result.counts.coverage().estimate();
    let p_t = result.counts.p_t().estimate();
    let p_om = result.counts.p_om().estimate();
    let p_fs = result.counts.p_fs().estimate();
    // Normalise the split exactly (counting gives it within rounding).
    let sum = p_t + p_om + p_fs;
    assert!(sum > 0.0);

    let mut params = BbwParams::paper();
    params.coverage = c_d.clamp(0.5, 1.0);
    params.p_t = p_t / sum;
    params.p_om = p_om / sum;
    params.p_fs = p_fs / sum;
    params
        .validate()
        .expect("measured parameters are consistent");
    params
}

#[test]
fn measured_parameters_are_in_paper_ballpark() {
    let p = measured_params(4_000);
    // The paper assumed P_T = 0.90; our structural campaign should also
    // find that TEM masks the large majority of detected transients.
    assert!(p.p_t > 0.7, "P_T = {}", p.p_t);
    // Kernel share drives P_FS; configured at 5%, estimate should be near.
    assert!(p.p_fs < 0.3, "P_FS = {}", p.p_fs);
    // Coverage is high (TEM + hardware EDMs catch almost everything).
    assert!(p.coverage > 0.9, "C_D = {}", p.coverage);
}

#[test]
fn measured_parameters_reproduce_the_headline_conclusion() {
    let measured = measured_params(3_000);
    let fs = BbwSystem::new(&measured, Policy::FailSilent, Functionality::Degraded);
    let nlft = BbwSystem::new(&measured, Policy::Nlft, Functionality::Degraded);
    let r_fs = fs.reliability(HOURS_PER_YEAR);
    let r_nlft = nlft.reliability(HOURS_PER_YEAR);
    assert!(
        r_nlft > r_fs,
        "NLFT must beat FS with measured parameters too: {r_nlft} vs {r_fs}"
    );
    let mttf_gain = nlft.mttf_hours() / fs.mttf_hours();
    assert!(mttf_gain > 1.2, "MTTF gain {mttf_gain}");
}

#[test]
fn fs_campaign_justifies_fail_silent_modelling() {
    // The FS campaign measures the coverage a *fail-silent* node achieves
    // without TEM; it must be clearly below the NLFT campaign's coverage —
    // that delta is the entire premise of the paper.
    let fs_cfg = CampaignConfig::new(3_000, 0xFEED, NodePolicy::FailSilent);
    let nlft_cfg = CampaignConfig::new(3_000, 0xFEED, NodePolicy::LightweightNlft);
    let fs = run_campaign(&fs_cfg, &EngineConfig::with_workers(4));
    let nlft = run_campaign(&nlft_cfg, &EngineConfig::with_workers(4));
    let (c_fs, c_nlft) = (
        fs.counts.coverage().estimate(),
        nlft.counts.coverage().estimate(),
    );
    assert!(c_nlft > c_fs, "TEM adds coverage: {c_nlft} vs {c_fs}");
    // And the FS node never produces omissions (it is silent instead).
    assert_eq!(fs.counts.omission, 0);
    assert!(nlft.counts.masked > nlft.counts.fail_silent);
}
