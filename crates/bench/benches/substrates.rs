//! Microbenchmarks of every substrate: the matrix exponential, CTMC
//! solves, BDD fault trees, the TM32 interpreter, TEM jobs, the multicore
//! certification sweep, the escalation-chain solve, the preemptive
//! executive, the TDMA bus, one BBW cluster cycle and the weakly-hard
//! miss count.

use nlft_bbw::cluster::BbwCluster;
use nlft_core::diagnosis::escalation_chain;
use nlft_kernel::analysis::MissModel;
use nlft_kernel::escalation::EscalationPolicy;
use nlft_kernel::multicore::MulticoreExecutive;
use nlft_kernel::preemptive::{PreemptiveExecutive, ResidentTask};
use nlft_kernel::resources::{certify, ProtocolKind};
use nlft_kernel::task::{Priority, TaskId};
use nlft_kernel::tem::{InjectionPlan, TemConfig, TemExecutor};
use nlft_machine::fault::{run_with_stuck_at, FaultTarget, StuckAtFault, TransientFault};
use nlft_machine::isa::Reg;
use nlft_machine::machine::RunExit;
use nlft_machine::workloads;
use nlft_net::bus::{Bus, BusConfig};
use nlft_net::frame::NodeId;
use nlft_reliability::ctmc::CtmcBuilder;
use nlft_reliability::dtmc::AbsorbingDtmc;
use nlft_reliability::faulttree::FaultTreeBuilder;
use nlft_reliability::linalg::Matrix;
use nlft_sim::rng::RngStream;
use nlft_sim::time::SimDuration;
use nlft_testkit::bench::Bench;
use std::hint::black_box;

fn bench_linalg() {
    let mut b = Bench::new("linalg");
    for n in [5usize, 10, 20] {
        let mut q = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    q.set(i, j, 0.01 * ((i + j) % 7 + 1) as f64);
                }
            }
        }
        for i in 0..n {
            let row: f64 = (0..n).filter(|&j| j != i).map(|j| q.get(i, j)).sum();
            q.set(i, i, -row);
        }
        {
            let scaled = q.scale(1e5);
            b.bench(&format!("expm_{n}x{n}_stiff"), || black_box(scaled.expm()));
        }
        {
            let rhs = Matrix::identity(n);
            b.bench(&format!("lu_solve_{n}x{n}"), || {
                black_box(
                    q.sub(&Matrix::identity(n))
                        .solve(&rhs)
                        .expect("nonsingular"),
                )
            });
        }
    }
    b.finish();
}

fn bench_ctmc() {
    let mut b5 = CtmcBuilder::new();
    let states: Vec<_> = (0..5).map(|i| b5.state(format!("s{i}"))).collect();
    for i in 0..4 {
        b5.transition(states[i], states[i + 1], 1e-4 * (i + 1) as f64)
            .unwrap();
        b5.transition(states[i + 1], states[i], 1e3).unwrap();
    }
    let chain = b5.build();
    let pi0 = [1.0, 0.0, 0.0, 0.0, 0.0];

    let mut b = Bench::new("ctmc");
    b.bench("transient_5_states_stiff_1y", || {
        black_box(chain.transient(black_box(&pi0), 8760.0).expect("valid"))
    });
    b.bench("mttf_5_states", || {
        chain.mttf(black_box(&pi0), &[states[4]]).ok()
    });
    b.finish();
}

fn bench_faulttree() {
    let mut b = Bench::new("faulttree");
    b.bench("build_8of16_bdd", || {
        let mut ft = FaultTreeBuilder::new();
        let events: Vec<_> = (0..16).map(|i| ft.basic_event(format!("e{i}"))).collect();
        let top = ft.k_of_n(8, events);
        black_box(ft.build(top))
    });
    let mut ft = FaultTreeBuilder::new();
    let events: Vec<_> = (0..16).map(|i| ft.basic_event(format!("e{i}"))).collect();
    let top = ft.k_of_n(8, events);
    let tree = ft.build(top);
    let probs = [0.01; 16];
    b.bench("evaluate_8of16", || {
        black_box(tree.top_probability(black_box(&probs)))
    });
    b.finish();
}

fn bench_machine() {
    let pid = workloads::pid_controller();
    let (_, cycles) = pid.golden_run(&[1000, 900]);

    let mut b = Bench::new("machine");
    b.bench_throughput("pid_single_run", cycles, || {
        let mut m = pid.instantiate();
        m.set_input(0, 1000);
        m.set_input(1, 900);
        black_box(m.run(100_000))
    });
    // One machine re-run, its decode cache warm: a 3-instruction loop
    // 1000 times over, so the per-instruction cost dominates.
    let sum = workloads::sum_series();
    let (_, cycles) = sum.golden_run(&[1000]);
    let mut m = sum.instantiate();
    b.bench_throughput("sum_series_warm", cycles, || {
        m.reset(0, workloads::STACK_TOP);
        m.set_input(0, 1000);
        black_box(m.run(100_000))
    });
    // A stuck-at job runs one `step` per instruction with the fault
    // asserted before each. PID's r7 only holds small non-negative
    // constants, so a stuck-low top bit there keeps the run golden.
    let stuck = StuckAtFault {
        target: FaultTarget::Register(Reg::R7),
        bit: 1 << 31,
        stuck_high: false,
    };
    let stuck_run = || {
        let mut m = pid.instantiate();
        m.set_input(0, 1000);
        m.set_input(1, 900);
        run_with_stuck_at(&mut m, 100_000, stuck)
    };
    let out = stuck_run();
    assert_eq!(out.exit, RunExit::Halted, "the stuck bit must stay benign");
    b.bench_throughput("pid_stuck_at", out.cycles_used, || black_box(stuck_run()));
    b.finish();
}

fn bench_tem() {
    let pid = workloads::pid_controller();
    let (_, cycles) = pid.golden_run(&[1000, 900]);
    let tem = TemExecutor::new(TemConfig::with_budget(cycles * 2));

    let mut triplicated = *tem.config();
    triplicated.min_results = 3;
    let triplicated = TemExecutor::new(triplicated);
    // A PC flip early in copy 0 traps at once; a replacement copy runs.
    let pc_flip = InjectionPlan {
        copy: 0,
        at_cycle: 5,
        fault: TransientFault {
            target: FaultTarget::Pc,
            mask: 1 << 20,
        },
    };

    let mut b = Bench::new("tem");
    let mut m = pid.instantiate();
    b.bench("clean_job_two_copies", || {
        black_box(tem.run_job(&mut m, &pid, &[1000, 900], None))
    });
    b.bench("triplicated_job", || {
        black_box(triplicated.run_job(&mut m, &pid, &[1000, 900], None))
    });
    b.bench("recover_job_pc_flip", || {
        black_box(tem.run_job(&mut m, &pid, &[1000, 900], Some(pc_flip)))
    });
    b.finish();
}

/// Certify the reference workload under both protocols at 2 and 5 cores.
fn certify_sweep() -> usize {
    let mut certified = 0usize;
    for cores in [2usize, 5] {
        let (set, map) = MulticoreExecutive::reference_workload(cores);
        for kind in [ProtocolKind::LockBased, ProtocolKind::LeftRs] {
            certified += certify(&set, &map, kind, cores as u32, 1)
                .iter()
                .filter(|c| c.response.is_some())
                .count();
        }
    }
    certified
}

fn bench_multicore() {
    let mut b = Bench::new("multicore");
    b.bench("certify_sweep_2_and_5_cores", || black_box(certify_sweep()));
    b.finish();
}

fn analytic_retirement_slots(p_err: f64) -> f64 {
    let chain = escalation_chain(EscalationPolicy::default(), p_err);
    AbsorbingDtmc::new(chain.matrix.clone(), &chain.retired)
        .expect("ladder chain is absorbing")
        .expected_steps_to_absorption(chain.start)
        .expect("retirement reachable")
}

fn bench_diagnosis() {
    let mut b = Bench::new("diagnosis");
    b.bench("escalation_chain_solve", || {
        black_box(analytic_retirement_slots(black_box(0.5)))
    });
    b.finish();
}

fn bench_preemptive() {
    let mut b = Bench::new("preemptive");
    b.bench("two_tasks_10k_cycles", || {
        let mut exec = PreemptiveExecutive::new(2);
        let mk = |id: u32, prio: u32, period: u64, budget: u64| ResidentTask {
            id: TaskId(id),
            name: format!("t{id}"),
            period_cycles: period,
            deadline_cycles: period,
            budget_cycles: budget,
            priority: Priority(prio),
            inputs: vec![],
            output_port: 0,
            critical: false,
        };
        exec.add_task(mk(1, 0, 400, 150), "ldi r0, 5\nout r0, port0\nhalt")
            .expect("loads");
        exec.add_task(
            mk(2, 1, 2_000, 1_500),
            "    ldi r0, 0
                 ldi r1, 150
                 ldi r2, 1
             loop:
                 add r0, r0, r2
                 sub r1, r1, r2
                 jnz loop
                 out r0, port0
                 halt",
        )
        .expect("loads");
        black_box(exec.run(10_000))
    });
    b.finish();
}

fn bench_net() {
    let mut b = Bench::new("net");
    {
        let mut bus = Bus::new(BusConfig::round_robin(6, 2));
        b.bench("tdma_cycle_6_nodes", || {
            bus.start_cycle();
            for n in 0..6 {
                bus.transmit_static(NodeId(n), vec![1, 2, 3, 4])
                    .expect("own slot");
            }
            black_box(bus.finish_cycle())
        });
    }
    {
        // A steady pedal: after the first cycles most node jobs repeat
        // the last one and are skipped (the hit path).
        let mut cluster = BbwCluster::new();
        b.bench("bbw_cluster_cycle", || black_box(cluster.run(1, |_| 1000)));
    }
    {
        // A pedal that moves every cycle: no node job repeats, so every
        // job runs its TEM copies (the miss path).
        let mut cluster = BbwCluster::new();
        let mut cycle = 0u32;
        b.bench("bbw_cluster_cycle_ramp", || {
            cycle += 1;
            let pedal = 500 + 7 * (cycle % 400);
            black_box(cluster.run(1, |_| pedal))
        });
    }
    b.finish();
}

/// One miss count over the densest train the weakly-hard campaign draws:
/// `T_F` = 40 µs with jitter in `[0, T_F)` over 64 jobs of 100 µs, about
/// 110 faults. Linear in jobs plus faults; a per-job filter over the
/// whole train is quadratic.
fn bench_weakly_hard() {
    let us = SimDuration::from_micros;
    let model = MissModel {
        period: us(100),
        deadline: us(80),
        fault_interval: us(40),
        tolerated: 1,
    };
    let mut rng = RngStream::new(0x40);
    let mut faults = Vec::new();
    let mut t = rng.uniform_range(0, 40);
    while t < 6_400 {
        faults.push(us(t));
        t += 40 + rng.uniform_range(0, 40);
    }
    let mut b = Bench::new("weakly_hard");
    b.bench("misses_64_jobs_dense", || {
        black_box(model.misses(black_box(&faults), 64))
    });
    b.finish();
}

fn main() {
    bench_linalg();
    bench_ctmc();
    bench_faulttree();
    bench_machine();
    bench_tem();
    bench_multicore();
    bench_diagnosis();
    bench_preemptive();
    bench_net();
    bench_weakly_hard();
}
