//! Bit-level pins of the two TEM executives.
//!
//! Each test runs a seeded fault sweep and folds the `Debug` text of every
//! report into one CRC-32. A digest moves when any delivered value, copy
//! trace, detection, cycle count, ECC counter or committed state word
//! moves, so a refactor of the §2.5 job rule that claims to change nothing
//! must leave both digests where they are.

use nlft_kernel::contract::{DegradationAction, MkContract};
use nlft_kernel::preemptive::{PreemptiveExecutive, ResidentTask};
use nlft_kernel::task::{Priority, TaskId};
use nlft_kernel::tem::{InjectionPlan, JobFault, TemConfig, TemExecutor};
use nlft_machine::fault::{FaultModel, FaultSpace};
use nlft_machine::machine::Machine;
use nlft_machine::workloads::{self, Workload, DATA_BASE, MEM_BYTES};
use nlft_sim::crc::{crc32, crc32_words};
use nlft_sim::rng::RngStream;
use std::fmt::Write;

/// Jobs run back to back on one machine per (workload, config, ECC) cell:
/// state, and any flip a job leaves behind, carry into the next job.
const JOBS_PER_CELL: u64 = 40;

/// The TEM configurations the sweep covers, for a copy budget `budget`.
fn configs(budget: u64) -> [TemConfig; 4] {
    let base = TemConfig::with_budget(budget);
    [
        base,
        TemConfig {
            min_results: 3,
            ..base
        },
        TemConfig {
            max_results: 2,
            ..base
        },
        TemConfig {
            deadline_cycles: base.copy_budget * 2 + base.compare_cycles,
            ..base
        },
    ]
}

fn machine(w: &Workload, ecc: bool) -> Machine {
    if ecc {
        return w.instantiate();
    }
    let mut m = Machine::new_without_ecc(MEM_BYTES, w.map.clone());
    m.load_program(0, &w.image.words).expect("image fits");
    m
}

/// One job's fault: none, a transient into copy 0 or 1 (registers, PC,
/// SP, status or a memory word), or a stuck-at bit.
fn draw_fault(rng: &mut RngStream, wcet: u64) -> Option<JobFault> {
    let kind = rng.uniform_range(0, 10);
    if kind == 0 {
        return None;
    }
    let space = FaultSpace::seu(MEM_BYTES);
    if kind <= 2 {
        match space.with_stuck_at(1.0).sample_model(rng) {
            FaultModel::StuckAt(stuck) => return Some(JobFault::StuckAt(stuck)),
            other => unreachable!("stuck-at space drew {other:?}"),
        }
    }
    Some(JobFault::Transient(InjectionPlan {
        copy: rng.uniform_range(0, 2) as u32,
        at_cycle: rng.uniform_range(0, wcet + 1),
        fault: space.sample(rng),
    }))
}

fn tem_sweep_text() -> String {
    let root = RngStream::new(0x7E11_D165);
    let mut text = String::new();
    for (wi, w) in (0u64..).zip(workloads::standard_workloads()) {
        let mut inputs_rng = root.fork_indexed("inputs", wi);
        let inputs: Vec<u32> = w
            .input_ports
            .iter()
            .map(|_| inputs_rng.uniform_range(0, 2_000) as u32)
            .collect();
        let (_, wcet) = w.golden_run(&inputs);
        for (ci, cfg) in (0u64..).zip(configs(wcet * 2)) {
            let exec = TemExecutor::new(cfg);
            for ecc in [true, false] {
                let mut m = machine(&w, ecc);
                let mut rng = root.fork_indexed(w.name, ci * 2 + u64::from(ecc));
                for job in 0..JOBS_PER_CELL {
                    let fault = draw_fault(&mut rng, wcet);
                    let report = exec.run_job_with_fault(&mut m, &w, &inputs, fault);
                    let state = m.mem.peek_words(DATA_BASE, 256).expect("mapped");
                    writeln!(
                        text,
                        "{} cfg{ci} ecc={ecc} job{job} {fault:?} -> {report:?} {:?} {:08x}",
                        w.name,
                        m.mem.ecc_stats(),
                        crc32_words(state)
                    )
                    .expect("write to string");
                }
            }
        }
    }
    text
}

#[test]
fn tem_executor_sweep_digest_is_pinned() {
    let text = tem_sweep_text();
    assert_eq!(text.lines().count(), 6 * 4 * 2 * JOBS_PER_CELL as usize);
    assert_eq!(
        crc32(text.as_bytes()),
        0x7354_2D82,
        "TemExecutor sweep digest moved"
    );
}

const CRITICAL_SRC: &str = "
        ldi r0, 0
        ldi r1, 60
        ldi r2, 1
        ldi r3, 5
    acc:
        add r0, r0, r3
        sub r1, r1, r2
        jnz acc
        out r0, port0
        halt";

const MONITOR_SRC: &str = "
        in  r0, port1
        addi r0, r0, 3
        out r0, port2
        halt";

/// A high-rate monitor preempting a TEM-protected accumulator whose
/// copies get `budget` cycles each.
fn campaign_executive(budget: u64) -> PreemptiveExecutive {
    let mut exec = PreemptiveExecutive::new(2);
    exec.add_task(
        ResidentTask {
            id: TaskId(1),
            name: "monitor".into(),
            period_cycles: 300,
            deadline_cycles: 300,
            budget_cycles: 100,
            priority: Priority(0),
            inputs: vec![(1, 40)],
            output_port: 2,
            critical: false,
        },
        MONITOR_SRC,
    )
    .expect("monitor loads");
    exec.add_task(
        ResidentTask {
            id: TaskId(2),
            name: "critical".into(),
            period_cycles: 2_000,
            deadline_cycles: 2_000,
            budget_cycles: budget,
            priority: Priority(1),
            inputs: vec![],
            output_port: 0,
            critical: true,
        },
        CRITICAL_SRC,
    )
    .expect("critical loads");
    exec
}

#[test]
fn preemptive_campaign_digest_is_pinned() {
    let root = RngStream::new(0x93EE);
    let space = FaultSpace::cpu_only();
    let mut text = String::new();
    // The campaign's budget, and one below a clean copy's demand: there
    // every copy overruns, every job omits, and the contract clamps the
    // recovery copies of every job after the first.
    for (budget, clamp) in [(800, false), (800, true), (150, false), (150, true)] {
        for trial in 0..100u64 {
            let mut rng = root.fork_indexed("preemptive-pin", trial);
            let mut exec = campaign_executive(budget);
            if clamp {
                exec.register_contract(
                    TaskId(2),
                    MkContract::new(0, 2),
                    DegradationAction::ClampRecovery,
                );
            }
            let at_cycle = rng.uniform_range(1, 6_000);
            let fault = space.sample(&mut rng);
            exec.inject(at_cycle, TaskId(2), fault);
            let report = exec.run(8_000);
            writeln!(
                text,
                "budget={budget} clamp={clamp} trial{trial} {fault:?}@{at_cycle} -> {report:?} {:?}",
                exec.machine().mem.ecc_stats()
            )
            .expect("write to string");
        }
    }
    assert_eq!(
        crc32(text.as_bytes()),
        0x8AA4_46B1,
        "preemptive campaign digest moved"
    );
}
