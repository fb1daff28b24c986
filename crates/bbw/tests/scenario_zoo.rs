//! The scenario zoo's executable guarantees: every zoo file runs
//! through the DSL pipeline bit-identically at 1, 2 and 5 threads and
//! matches its golden pin, and the two reference scenarios are proven
//! equivalent — same verdict counts — to their pre-existing hand-wired
//! campaign counterparts.

use std::path::PathBuf;

use nlft_bbw::cluster_campaign::{run_net_storm_campaign, NetStormCampaignConfig};
use nlft_bbw::scenario::{check_accept, run_scenario};
use nlft_core::multicore_campaign::{run_multicore_campaign, MulticoreCampaignConfig};
use nlft_engine::EngineConfig;
use nlft_reliability::scenario::{parse_scenario, ScenarioSpec};

fn zoo() -> Vec<(String, ScenarioSpec)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("scenarios");
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
            let spec = parse_scenario(&source).unwrap_or_else(|e| panic!("{file}: {e}"));
            (file, spec)
        })
        .collect()
}

fn by_name(name: &str) -> ScenarioSpec {
    zoo()
        .into_iter()
        .map(|(_, s)| s)
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("scenario `{name}` in the zoo"))
}

/// The CI contract: every zoo scenario is thread-count invariant and
/// bit-identical to its golden pin, and its acceptance clause holds.
#[test]
fn zoo_pins_hold_at_1_2_and_5_threads() {
    for (file, spec) in zoo() {
        let one = run_scenario(&spec, 1).unwrap_or_else(|e| panic!("{file}: {e}"));
        let two = run_scenario(&spec, 2).unwrap_or_else(|e| panic!("{file}: {e}"));
        let five = run_scenario(&spec, 5).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(one, two, "{file}: 2-thread run diverged");
        assert_eq!(one, five, "{file}: 5-thread run diverged");
        let failures = check_accept(&spec, &one);
        assert!(failures.is_empty(), "{file}: {failures:?}");
    }
}

/// Equivalence proof #1: the DSL's `net-storm-nominal` is the same
/// experiment as the hand-wired golden-pinned storm campaign.
#[test]
fn net_storm_nominal_equals_hand_wired_campaign() {
    let spec = by_name("net-storm-nominal");
    let outcome = run_scenario(&spec, 1).expect("scenario runs");

    let mut config = NetStormCampaignConfig::new(spec.trials, spec.seed);
    config.cycles = 20;
    let direct = run_net_storm_campaign(&config, &EngineConfig::default());

    assert_eq!(
        outcome.counter("split_membership"),
        Some(direct.counts.split_membership)
    );
    assert_eq!(
        outcome.counter("service_lost"),
        Some(direct.counts.service_lost)
    );
    assert_eq!(
        outcome.counter("degraded_episode"),
        Some(direct.counts.degraded_episode)
    );
    assert_eq!(
        outcome.counter("omission_only"),
        Some(direct.counts.omission_only)
    );
    assert_eq!(
        outcome.counter("unaffected"),
        Some(direct.counts.unaffected)
    );
    assert_eq!(outcome.counter("injected"), Some(direct.injected.total()));
    assert_eq!(
        outcome.counter("crc_rejects"),
        Some(direct.counts.crc_rejects)
    );
    assert_eq!(
        outcome.counter("guardian_blocks"),
        Some(direct.counts.guardian_blocks)
    );
}

/// Equivalence proof #2: the DSL's `core-death-mid-section` is the same
/// experiment as the hand-wired multicore core-death campaign.
#[test]
fn core_death_mid_section_equals_hand_wired_campaign() {
    let spec = by_name("core-death-mid-section");
    let outcome = run_scenario(&spec, 1).expect("scenario runs");

    let config = MulticoreCampaignConfig::new(spec.trials, spec.seed);
    let direct = run_multicore_campaign(&config, &EngineConfig::default());

    assert_eq!(outcome.counter("crash"), Some(direct.counts.crash));
    assert_eq!(outcome.counter("escalated"), Some(direct.counts.escalated));
    assert_eq!(
        outcome.counter("lock_failed_crash"),
        Some(direct.counts.lock_failed_crash)
    );
    assert_eq!(
        outcome.counter("leftrs_clean"),
        Some(direct.counts.leftrs_clean)
    );
    assert_eq!(
        outcome.counter("lock_misses"),
        Some(direct.counts.lock_misses)
    );
    assert_eq!(
        outcome.counter("escalation_events"),
        Some(direct.counts.escalation_events)
    );
}
