//! Integration: the recovery-escalation ladder, analytically and by
//! simulation. The kernel's escalation machine is unfolded into an exact
//! absorbing DTMC (`escalation_chain`) and solved with the reliability
//! crate's fundamental-matrix machinery; the fault-injection recovery
//! campaign then measures the same quantity — jobs from fault onset to
//! retirement — on the executed machine + kernel stack. The two routes
//! must agree, which validates both the chain construction and the
//! campaign's event bookkeeping.

use nlft::core::campaign::{run_recovery_campaign, RecoveryCampaignConfig};
use nlft::core::diagnosis::escalation_chain;
use nlft::engine::EngineConfig;
use nlft::kernel::escalation::EscalationPolicy;
use nlft::machine::fault::FaultSpace;
use nlft::reliability::dtmc::AbsorbingDtmc;

#[test]
fn analytic_retirement_latency_matches_the_simulated_campaign() {
    // Analytic side: under a solid error stream (p_err = 1, what a
    // detected stuck-at produces) the ladder is deterministic, so the
    // expected steps to absorption are exact.
    let chain = escalation_chain(EscalationPolicy::default(), 1.0);
    let dtmc = AbsorbingDtmc::new(chain.matrix.clone(), &chain.retired)
        .expect("escalation chain is a valid absorbing DTMC");
    let analytic_steps = dtmc
        .expected_steps_to_absorption(chain.start)
        .expect("retirement is reachable under solid errors");

    // Simulated side: a stuck-at-heavy campaign. Every *detected*
    // stuck-at errors on every job, so each retired trial walks the
    // p_err = 1 path of the chain exactly.
    let mut config = RecoveryCampaignConfig::new(400, 0xD73C_2005);
    config.space = FaultSpace::cpu_only().with_stuck_at(0.9);
    let result = run_recovery_campaign(&config, &EngineConfig::with_workers(4));
    assert!(
        result.counts.retired >= 20,
        "need a healthy sample of retirements, got {}",
        result.counts.retired
    );

    // The chain counts slots from (and including) the first errored job;
    // the campaign records jobs elapsed *since* that job. The two differ
    // by exactly the one slot in which the fault first manifests.
    let simulated = result.retirement_latency_jobs.mean();
    assert!(
        (analytic_steps - 1.0 - simulated).abs() < 1e-9,
        "analytic {analytic_steps} steps vs simulated {simulated} jobs"
    );
}

#[test]
fn finite_horizon_absorption_brackets_the_deterministic_latency() {
    let chain = escalation_chain(EscalationPolicy::default(), 1.0);
    let dtmc = AbsorbingDtmc::new(chain.matrix.clone(), &chain.retired).unwrap();
    let steps = dtmc
        .expected_steps_to_absorption(chain.start)
        .unwrap()
        .round() as u32;
    // Deterministic chain: not retired one slot earlier, certainly
    // retired at the expected step.
    let before = dtmc
        .absorption_probability(chain.start, steps - 1, &chain.retired)
        .unwrap();
    let at = dtmc
        .absorption_probability(chain.start, steps, &chain.retired)
        .unwrap();
    assert!(before < 1e-12, "retired early: {before}");
    assert!((at - 1.0).abs() < 1e-12, "not retired on schedule: {at}");
}

#[test]
fn retirement_slows_as_errors_get_rarer() {
    // Sanity on the stochastic regime: lower per-job error probability
    // must stretch the expected time to retirement, and a rate at the
    // transient bound must make retirement much slower than a solid
    // stream — the separation the alpha-count tuning relies on.
    let policy = EscalationPolicy::default();
    let steps = |p: f64| {
        let chain = escalation_chain(policy, p);
        AbsorbingDtmc::new(chain.matrix.clone(), &chain.retired)
            .unwrap()
            .expected_steps_to_absorption(chain.start)
            .unwrap()
    };
    let solid = steps(1.0);
    let flaky = steps(0.5);
    let rare = steps(0.05);
    assert!(solid < flaky && flaky < rare, "{solid} / {flaky} / {rare}");
    assert!(
        rare > 20.0 * solid,
        "transient-rate errors must retire far slower: {rare} vs {solid}"
    );
}
