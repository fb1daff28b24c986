//! The scenario compiler's mapping from `params` lines onto campaign
//! configurations, family by family.
//!
//! Two cases per family, compared on the whole configuration, every
//! field by name:
//!
//! * a scenario with no `params` block compiles to the family's stock
//!   constructor, so the DSL's defaults and the constructors' agree;
//! * a scenario that sets every parameter to a distinct non-default
//!   value compiles to the stock constructor with exactly those fields
//!   changed, so each value lands in its named field and nowhere else.

use nlft_bbw::blackout::BlackoutCampaignConfig;
use nlft_bbw::braking::MissPolicy;
use nlft_bbw::cluster_campaign::NetStormCampaignConfig;
use nlft_bbw::recovery::RecoveryClusterCampaignConfig;
use nlft_bbw::scenario::{compile, CompiledFamily};
use nlft_bbw::value_campaign::ValueDomainCampaignConfig;
use nlft_bbw::weakly_hard_campaign::MissPatternCampaignConfig;
use nlft_core::campaign::CampaignConfig;
use nlft_core::multicore_campaign::MulticoreCampaignConfig;
use nlft_core::policy::NodePolicy;
use nlft_kernel::contract::MkContract;
use nlft_reliability::scenario::parse_scenario;

const TRIALS: u64 = 7;
const SEED: u64 = 0x5eed;

/// Every field of a configuration by name: its `Debug` rendering, the
/// node campaign's workloads included.
fn fields(family: &CompiledFamily) -> String {
    format!("{family:?}")
}

/// The configuration `family` compiles to with `params` (a `params`
/// block, or nothing), field by field.
fn compiled(family: &str, params: &str) -> String {
    let source =
        format!("scenario mapping\nfamily {family}\ntrials {TRIALS}\nseed {SEED}\n{params}end\n");
    let spec = parse_scenario(&source).unwrap_or_else(|e| panic!("{family}: {e}"));
    let compiled = compile(&spec, 1).unwrap_or_else(|e| panic!("{e}"));
    fields(&compiled.family)
}

#[test]
fn a_scenario_without_params_compiles_to_the_stock_constructor() {
    let stock = [
        (
            "net_storm",
            CompiledFamily::NetStorm(NetStormCampaignConfig::new(TRIALS, SEED)),
        ),
        (
            "value_domain",
            CompiledFamily::ValueDomain(ValueDomainCampaignConfig::single_fault(TRIALS, SEED)),
        ),
        (
            "blackout",
            CompiledFamily::Blackout(BlackoutCampaignConfig::new(TRIALS, SEED)),
        ),
        (
            "recovery",
            CompiledFamily::Recovery(RecoveryClusterCampaignConfig::new(TRIALS, SEED)),
        ),
        (
            "weakly_hard",
            CompiledFamily::WeaklyHard(MissPatternCampaignConfig::nominal(TRIALS, SEED)),
        ),
        (
            "multicore",
            CompiledFamily::Multicore(MulticoreCampaignConfig::new(TRIALS, SEED)),
        ),
        (
            "node",
            CompiledFamily::Node(CampaignConfig::new(
                TRIALS,
                SEED,
                NodePolicy::LightweightNlft,
            )),
        ),
    ];
    for (family, expected) in stock {
        assert_eq!(compiled(family, ""), fields(&expected), "{family}");
    }
}

#[test]
fn a_combined_storm_without_net_intensity_runs_the_stock_storm() {
    let stock = ValueDomainCampaignConfig::combined_storm(TRIALS, SEED);
    assert_eq!(
        compiled("value_domain", "params\nmode combined_storm\nend\n"),
        fields(&CompiledFamily::ValueDomain(stock))
    );
}

#[test]
fn every_parameter_lands_in_its_named_field() {
    let mut net_storm = NetStormCampaignConfig::new(TRIALS, SEED);
    net_storm.cycles = 21;
    net_storm.intensity = 0.45;
    net_storm.with_node_faults = false;

    let mut value_domain = ValueDomainCampaignConfig::combined_storm(TRIALS, SEED);
    value_domain.cycles = 24;
    value_domain.net_intensity = 0.35;

    let mut blackout = BlackoutCampaignConfig::new(TRIALS, SEED);
    blackout.warmup_cycles = 5;
    blackout.recovery_cycles = 33;
    blackout.down_cycles = 3;
    blackout.stagger = 4;
    blackout.min_reset = 1;
    blackout.include_cus = false;

    let mut recovery = RecoveryClusterCampaignConfig::new(TRIALS, SEED);
    recovery.cycles = 35;

    let mut weakly_hard = MissPatternCampaignConfig::nominal(TRIALS, SEED);
    weakly_hard.horizon_jobs = 48;
    weakly_hard.contract = MkContract::new(3, 10);
    weakly_hard.fault_interval_us = (50, 170);
    weakly_hard.policy = MissPolicy::ZeroForce;

    let mut multicore = MulticoreCampaignConfig::new(TRIALS, SEED);
    multicore.cores = 3;
    multicore.horizon = 5_000;
    multicore.escalated_p = 0.4;

    let node = CampaignConfig::new(TRIALS, SEED, NodePolicy::FailSilent);

    let cases = [
        (
            "net_storm",
            "cycles 21\nintensity 0.45\nnode_faults off",
            CompiledFamily::NetStorm(net_storm),
        ),
        (
            "value_domain",
            "cycles 24\nmode combined_storm\nnet_intensity 0.35",
            CompiledFamily::ValueDomain(value_domain),
        ),
        (
            "blackout",
            "warmup 5\nrecovery 33\ndown 3\nstagger 4\nmin_reset 1\ninclude_cus off",
            CompiledFamily::Blackout(blackout),
        ),
        ("recovery", "cycles 35", CompiledFamily::Recovery(recovery)),
        (
            "weakly_hard",
            "horizon_jobs 48\ncontract 3 10\ninterval 50 170\npolicy zero_force",
            CompiledFamily::WeaklyHard(weakly_hard),
        ),
        (
            "multicore",
            "cores 3\nhorizon 5000\nescalated_p 0.4",
            CompiledFamily::Multicore(multicore),
        ),
        ("node", "policy fail_silent", CompiledFamily::Node(node)),
    ];
    for (family, lines, expected) in cases {
        let params = format!("params\n{lines}\nend\n");
        assert_eq!(compiled(family, &params), fields(&expected), "{family}");
    }
}
