//! Property-based tests for the kernel: the one-core executive never
//! contradicts the response-time analysis and reaches its bound on
//! schedulable sets, and TEM is deterministic.

use nlft_kernel::analysis::{analyse, response_time};
use nlft_kernel::integrity::{crc32, SealedMessage};
use nlft_kernel::multicore::{MulticoreExecutive, MulticoreReport};
use nlft_kernel::resources::{ProtocolKind, ResourceMap};
use nlft_kernel::task::{Criticality, Priority, TaskId, TaskSet, TaskSpecBuilder};
use nlft_kernel::tem::{InjectionPlan, TemConfig, TemExecutor};
use nlft_machine::fault::FaultSpace;
use nlft_machine::workloads;
use nlft_sim::rng::RngStream;
use nlft_sim::time::SimDuration;
use nlft_testkit::prop::{gens, Suite};
use nlft_testkit::rng::TkRng;
use nlft_testkit::{prop_assert, prop_assert_eq, prop_assert_ne};

const SUITE: Suite = Suite::new(0x5EED_00E1).cases(64);

/// Builds a random task set with bounded utilisation; returns `None` when a
/// drawn task would violate its own deadline.
fn build_set(specs: &[(u64, u64)]) -> Option<TaskSet> {
    let mut set = TaskSet::new();
    for (i, &(period_us, wcet_us)) in specs.iter().enumerate() {
        let spec = TaskSpecBuilder::new(TaskId(i as u32), format!("t{i}"))
            .period(SimDuration::from_micros(period_us))
            .wcet(SimDuration::from_micros(wcet_us))
            .priority(Priority(i as u32))
            .criticality(Criticality::Critical)
            .build()
            .ok()?;
        set.add(spec).ok()?;
    }
    Some(set)
}

/// Periods 100µs–10ms, WCET 1–20% of the period.
fn arb_task(r: &mut TkRng) -> (u64, u64) {
    let p = r.range(100, 10_000);
    let lo = (p / 100).max(1);
    let hi = (p / 5).max(2);
    let c = r.range(lo, hi + 1);
    (p, c)
}

/// Runs `set` on a one-core executive for 200 ms from the critical
/// instant (every task released at t = 0).
fn run_one_core(set: &TaskSet) -> MulticoreReport {
    MulticoreExecutive::new(1, set, &ResourceMap::new(), ProtocolKind::LockBased).run(200_000)
}

/// Soundness and tightness: the simulated worst response at the critical
/// instant never exceeds the RTA bound, for any random task set, and
/// equals it for every task of a schedulable set.
#[test]
fn simulation_never_beats_rta_bound() {
    SUITE.check(
        "simulation_never_beats_rta_bound",
        gens::vec(arb_task, 1..5),
        |specs| {
            let Some(set) = build_set(specs) else {
                return Ok(());
            };
            let schedulable = analyse(&set).is_schedulable();
            let report = run_one_core(&set);
            for (t, outcome) in set.iter().zip(&report.per_task) {
                prop_assert_eq!(outcome.id, t.id);
                let Some(bound) = response_time(&set, t) else {
                    continue;
                };
                if let Some(observed) = outcome.worst_response {
                    prop_assert!(
                        observed <= bound,
                        "{}: observed {observed} > bound {bound}",
                        t.name
                    );
                }
                if schedulable {
                    prop_assert_eq!(outcome.worst_response, Some(bound));
                }
            }
            Ok(())
        },
    );
}

/// Completeness direction: when RTA says schedulable, the simulation
/// at the critical instant misses no deadline.
#[test]
fn rta_schedulable_implies_no_misses() {
    SUITE.check(
        "rta_schedulable_implies_no_misses",
        gens::vec(arb_task, 1..5),
        |specs| {
            let Some(set) = build_set(specs) else {
                return Ok(());
            };
            if analyse(&set).is_schedulable() {
                let report = run_one_core(&set);
                prop_assert_eq!(report.missed, 0);
            }
            Ok(())
        },
    );
}

/// Gross overload is always caught by the analysis.
#[test]
fn overload_is_unschedulable() {
    SUITE.check(
        "overload_is_unschedulable",
        |r: &mut TkRng| r.range(100, 1000),
        |&period| {
            // Two tasks, each needing 60% of the CPU.
            let wcet = period * 6 / 10;
            let Some(set) = build_set(&[(period, wcet), (period, wcet)]) else {
                return Ok(());
            };
            prop_assert!(!analyse(&set).is_schedulable());
            Ok(())
        },
    );
}

/// TEM job outcomes are a pure function of (workload, inputs, fault).
#[test]
fn tem_reports_are_deterministic() {
    SUITE.check(
        "tem_reports_are_deterministic",
        |r: &mut TkRng| (r.next_u64(), r.range(1, 200)),
        |&(seed, at_cycle)| {
            let w = workloads::pid_controller();
            let mut rng = RngStream::new(seed);
            let fault = FaultSpace::cpu_only().sample(&mut rng);
            let run = || {
                let (_, wcet) = w.golden_run(&[900, 700]);
                let tem = TemExecutor::new(TemConfig::with_budget(wcet * 2));
                let mut m = w.instantiate();
                tem.run_job(
                    &mut m,
                    &w,
                    &[900, 700],
                    Some(InjectionPlan {
                        copy: 0,
                        at_cycle,
                        fault,
                    }),
                )
            };
            prop_assert_eq!(run(), run());
            Ok(())
        },
    );
}

/// A delivered TEM result always equals the golden output, no matter
/// where a single CPU transient strikes — the core masking guarantee.
#[test]
fn delivered_results_are_always_golden() {
    SUITE.check(
        "delivered_results_are_always_golden",
        |r: &mut TkRng| (r.next_u64(), r.range(1, 150), r.range(0, 2) as u32),
        |&(seed, at_cycle, copy)| {
            let w = workloads::checksum_block();
            let (golden, wcet) = w.golden_run(&[]);
            let mut rng = RngStream::new(seed);
            let fault = FaultSpace::cpu_only().sample(&mut rng);
            let tem = TemExecutor::new(TemConfig::with_budget(wcet * 2));
            let mut m = w.instantiate();
            let report = tem.run_job(
                &mut m,
                &w,
                &[],
                Some(InjectionPlan {
                    copy,
                    at_cycle,
                    fault,
                }),
            );
            if let Some(outputs) = report.outputs {
                prop_assert_eq!(outputs[0], golden[0], "delivered wrong value: {:?}", report);
            }
            Ok(())
        },
    );
}

/// CRC32 is sensitive to any single word change.
#[test]
fn crc_distinguishes_any_single_change() {
    SUITE.check(
        "crc_distinguishes_any_single_change",
        {
            let mut data = gens::vec(|r| r.next_u32(), 1..32);
            let mut idx = gens::index();
            move |r: &mut TkRng| (data(r), idx(r), r.range(1, 1u64 << 32) as u32)
        },
        |(data, idx, delta)| {
            let mut mutated = data.clone();
            let i = idx.index(data.len());
            mutated[i] = mutated[i].wrapping_add(*delta);
            if &mutated != data {
                prop_assert_ne!(crc32(data), crc32(&mutated));
            }
            Ok(())
        },
    );
}

/// Sealed messages round-trip any payload and reject any 1–2 bit
/// payload corruption.
#[test]
fn sealed_message_integrity() {
    SUITE.check(
        "sealed_message_integrity",
        {
            let mut payload = gens::vec(|r| r.next_u32(), 0..64);
            let mut word = gens::index();
            move |r: &mut TkRng| (payload(r), word(r), r.range(0, 32) as u32)
        },
        |(payload, word, bit)| {
            let msg = SealedMessage::seal(payload.clone());
            prop_assert_eq!(msg.clone().open().unwrap(), payload.clone());
            if !payload.is_empty() {
                let mut corrupt = msg;
                corrupt.corrupt_payload(word.index(payload.len()), 1 << bit);
                prop_assert!(corrupt.open().is_err());
            }
            Ok(())
        },
    );
}
