//! Layer probes: each times calls into one crate's public functions,
//! in batches, inside spans named `probe.<layer>.<what>`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nlft_bbw::cluster::BbwCluster;
use nlft_engine::{indexed_campaign, run_trials, EngineConfig};
use nlft_kernel::analysis::{analyse_weakly_hard, TemCosts};
use nlft_kernel::contract::MkContract;
use nlft_kernel::integrity::{CommandAcceptor, FreshSealedMessage};
use nlft_kernel::multicore::MulticoreExecutive;
use nlft_kernel::resources::ProtocolKind;
use nlft_kernel::task::{Criticality, Priority, TaskId, TaskSet, TaskSpecBuilder};
use nlft_kernel::tem::{InjectionPlan, JobFault, JobOutcome, TemConfig, TemExecutor};
use nlft_machine::fault::{CoreDeathFault, FaultTarget, TransientFault};
use nlft_machine::machine::{Machine, Step};
use nlft_machine::workloads::{self, Workload, STACK_TOP};
use nlft_net::bus::{Bus, BusConfig};
use nlft_net::frame::NodeId;
use nlft_net::inject::{NetFaultInjector, NetFaultPlan, NetFaultRates};
use nlft_sim::crc::crc32;
use nlft_sim::rng::RngStream;
use nlft_sim::time::SimDuration;
use nlft_sim::weakly_hard::WeaklyHard;

use crate::trace::Tracer;

/// Fewest batches a probe takes, however small its budget.
const MIN_BATCHES: usize = 7;
/// Cycles per cluster-cycle batch.
const CLUSTER_CYCLES: u32 = 30;
/// Storm intensity of the storm probes.
const STORM: f64 = 0.3;
/// The six bus nodes.
const NODES: [NodeId; 6] = [
    NodeId(0),
    NodeId(1),
    NodeId(2),
    NodeId(3),
    NodeId(4),
    NodeId(5),
];

/// Wall time one probe span aims to cover.
const TARGET_SPAN: Duration = Duration::from_micros(500);

/// Runs `run` in spans named `name` until `budget` is spent (at least
/// [`MIN_BATCHES`] spans); a span's ops are the sum of what its calls
/// return. `setup` builds each call's untimed input. One untimed call
/// first warms caches and sizes the spans to about [`TARGET_SPAN`].
fn sample<S>(
    tr: &mut Tracer,
    name: &str,
    budget: Duration,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S) -> u64,
) {
    let start = Instant::now();
    let mut input = setup();
    let t = Instant::now();
    run(&mut input);
    let calls =
        (TARGET_SPAN.as_secs_f64() / t.elapsed().as_secs_f64().max(1e-9)).clamp(1.0, 1e3) as usize;
    drop(input);
    let mut batches = 0;
    while batches < MIN_BATCHES || start.elapsed() < budget {
        let mut inputs: Vec<S> = (0..calls).map(|_| setup()).collect();
        tr.span_counted(name, |_| ((), inputs.iter_mut().map(&mut run).sum()));
        drop(inputs);
        batches += 1;
    }
}

/// A cluster job: one of the six nodes' workloads with its inputs.
struct Job {
    workload: Workload,
    inputs: Vec<u32>,
}

/// The cluster's six jobs per cycle: two CU distributions, four PIDs.
fn cluster_jobs() -> Vec<Job> {
    let dist = workloads::brake_distribution();
    let pid = workloads::pid_controller();
    let mut jobs = Vec::new();
    for _ in 0..2 {
        jobs.push(Job {
            workload: dist.clone(),
            inputs: vec![1000],
        });
    }
    for _ in 0..4 {
        jobs.push(Job {
            workload: pid.clone(),
            inputs: vec![1000, 900],
        });
    }
    jobs
}

fn bind(m: &mut Machine, job: &Job) {
    for (&port, &v) in job.workload.input_ports.iter().zip(&job.inputs) {
        m.set_input(port, v);
    }
}

/// Steps a bound machine to its halt, returning the instructions retired.
fn step_to_halt(m: &mut Machine) -> u64 {
    let mut retired = 0;
    loop {
        match m.step() {
            Ok(Step::Running) => retired += 1,
            Ok(Step::Halted) => return retired + 1,
            Err(e) => panic!("clean workload run raised {e:?}"),
        }
    }
}

/// Instructions one clean copy of `job` retires.
fn instructions(job: &Job) -> u64 {
    let mut m = job.workload.instantiate();
    bind(&mut m, job);
    step_to_halt(&mut m)
}

fn tem_for(job: &Job) -> TemExecutor {
    let (_, cycles) = job.workload.golden_run(&job.inputs);
    TemExecutor::new(TemConfig::with_budget(cycles * 2 + 50))
}

fn storm_plan() -> NetFaultPlan {
    NetFaultPlan::quiet()
        .with_nodes(&NODES, NetFaultRates::storm(STORM))
        .with_dynamic(0.1 * STORM, 0.1 * STORM)
}

fn sealed_frame(seq: u32) -> Vec<u32> {
    FreshSealedMessage::seal(seq, vec![300, 300, 300, 300]).to_words()
}

fn wh_task_set() -> TaskSet {
    let us = SimDuration::from_micros;
    [
        (1, "brake-ctl", 100, 80, 30, 0),
        (2, "force-dist", 200, 160, 40, 1),
    ]
    .into_iter()
    .map(|(id, name, period, deadline, wcet, prio)| {
        TaskSpecBuilder::new(TaskId(id), name)
            .period(us(period))
            .deadline(us(deadline))
            .wcet(us(wcet))
            .priority(Priority(prio))
            .criticality(Criticality::Critical)
            .build()
            .expect("valid probe task")
    })
    .collect()
}

/// An engine campaign whose trials do nothing but fold their index.
fn empty_trials(trials: u64, workers: usize) -> u64 {
    let campaign = indexed_campaign(
        "perfbench-empty",
        "unused",
        trials,
        || 0u64,
        |trial, _ctx, acc: &mut u64| *acc = acc.wrapping_add(trial),
        |into: &mut u64, from| *into = into.wrapping_add(from),
    );
    let run = run_trials(campaign, &EngineConfig::with_workers(workers));
    assert_eq!(
        run.acc,
        trials * (trials - 1) / 2,
        "empty campaign lost trials"
    );
    trials
}

/// Deterministic xorshift work whose cost is linear in `rounds`.
pub fn spin(mut x: u64, rounds: u64) -> u64 {
    for _ in 0..rounds {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// An engine campaign of `trials` trials that each spin `rounds` rounds.
pub fn spin_trials(trials: u64, rounds: u64, workers: usize) -> u64 {
    let campaign = indexed_campaign(
        "perfbench-calibrated",
        "unused",
        trials,
        || 0u64,
        move |trial, _ctx, acc: &mut u64| *acc ^= spin(trial | 1, rounds),
        |into: &mut u64, from| *into ^= from,
    );
    black_box(run_trials(campaign, &EngineConfig::with_workers(workers)).acc);
    trials
}

/// Probes `run_all` runs, for splitting the probe budget.
pub const PROBES: usize = 20;

/// Runs every layer probe with `budget` each. `workers` is the
/// parallel worker count.
pub fn run_all(tr: &mut Tracer, budget: Duration, workers: usize) {
    let jobs = cluster_jobs();

    // bbw: cluster construction and cycles.
    let cluster = |seed: u64| BbwCluster::with_rng(RngStream::new(seed).fork("pedal-sensors"));
    let mut seed = 0u64;
    sample(tr, "probe.bbw.cluster_build", budget, Vec::new, |built| {
        for _ in 0..4 {
            seed += 1;
            built.push(cluster(seed));
        }
        4
    });
    sample(
        tr,
        "probe.bbw.cluster_cycle_clean",
        budget,
        || cluster(7),
        |c| {
            black_box(c.run(CLUSTER_CYCLES, |_| 1200));
            u64::from(CLUSTER_CYCLES)
        },
    );
    let mut storm_seed = 0u64;
    sample(
        tr,
        "probe.bbw.cluster_cycle_storm",
        budget,
        || {
            storm_seed += 1;
            let mut c = cluster(7);
            c.attach_net_faults(
                storm_plan(),
                RngStream::new(storm_seed).fork("net-injector"),
            );
            c
        },
        |c| {
            black_box(c.run(CLUSTER_CYCLES, |_| 1200));
            u64::from(CLUSTER_CYCLES)
        },
    );

    // machine: golden runs, instantiation, warm and cold interpretation.
    sample(
        tr,
        "probe.machine.golden_run",
        budget,
        || (),
        |_| {
            for job in &jobs[1..3] {
                black_box(job.workload.golden_run(&job.inputs));
            }
            2
        },
    );
    sample(
        tr,
        "probe.machine.instantiate",
        budget,
        Vec::new,
        |machines| {
            for job in &jobs {
                machines.push(job.workload.instantiate());
            }
            jobs.len() as u64
        },
    );
    let mut warm: Vec<Machine> = jobs.iter().map(|j| j.workload.instantiate()).collect();
    sample(
        tr,
        "probe.machine.run_warm",
        budget,
        || (),
        |_| {
            let mut retired = 0;
            for (m, job) in warm.iter_mut().zip(&jobs) {
                m.reset(0, STACK_TOP);
                m.clear_outputs();
                bind(m, job);
                retired += step_to_halt(m);
            }
            retired
        },
    );
    sample(
        tr,
        "probe.machine.run_cold",
        budget,
        || (),
        |_| {
            let mut retired = 0;
            for job in &jobs {
                let mut m = job.workload.instantiate();
                bind(&mut m, job);
                retired += step_to_halt(&mut m);
            }
            retired
        },
    );

    // kernel: TEM jobs, command acceptance, multicore, weakly-hard RTA.
    let tems: Vec<TemExecutor> = jobs.iter().map(tem_for).collect();
    let mut tem_machines: Vec<Machine> = jobs.iter().map(|j| j.workload.instantiate()).collect();
    sample(
        tr,
        "probe.kernel.tem_clean",
        budget,
        || (),
        |_| {
            for ((m, job), tem) in tem_machines.iter_mut().zip(&jobs).zip(&tems) {
                let report = tem.run_job(m, &job.workload, &job.inputs, None);
                assert_eq!(report.outcome, JobOutcome::DeliveredClean);
            }
            jobs.len() as u64
        },
    );
    let pc_flip = InjectionPlan {
        copy: 0,
        at_cycle: 3,
        fault: TransientFault {
            target: FaultTarget::Pc,
            mask: 1 << 20,
        },
    };
    sample(
        tr,
        "probe.kernel.tem_recover",
        budget,
        || (),
        |_| {
            for ((m, job), tem) in tem_machines.iter_mut().zip(&jobs).zip(&tems) {
                let report = tem.run_job_with_fault(
                    m,
                    &job.workload,
                    &job.inputs,
                    Some(JobFault::Transient(pc_flip)),
                );
                assert!(
                    matches!(report.outcome, JobOutcome::DeliveredMasked { .. })
                        && report.executions() == 3,
                    "the recovery probe must detect, re-execute and vote"
                );
            }
            jobs.len() as u64
        },
    );
    let mut acceptor = CommandAcceptor::new(2);
    let mut seq = 0u32;
    sample(
        tr,
        "probe.kernel.command_accept",
        budget,
        || (),
        |_| {
            for _ in 0..500 {
                seq += 1;
                acceptor
                    .accept(&sealed_frame(seq), seq)
                    .expect("fresh sealed command");
            }
            500
        },
    );
    sample(
        tr,
        "probe.kernel.multicore_run",
        budget,
        || (),
        |_| {
            for kind in [ProtocolKind::LockBased, ProtocolKind::LeftRs] {
                let mut exec = MulticoreExecutive::reference(2, kind);
                exec.inject(CoreDeathFault {
                    core: 0,
                    at_tick: 100,
                    in_section: true,
                    escalated: false,
                });
                black_box(exec.run(2_000));
            }
            2
        },
    );
    let set = wh_task_set();
    let contracts = [
        (TaskId(1), MkContract::new(2, 8)),
        (TaskId(2), MkContract::new(1, 4)),
    ];
    sample(
        tr,
        "probe.kernel.wh_analyse",
        budget,
        || (),
        |_| {
            for interval in (40..200).step_by(20) {
                black_box(analyse_weakly_hard(
                    &set,
                    &contracts,
                    SimDuration::from_micros(interval),
                    &TemCosts::nominal(),
                ));
            }
            8
        },
    );

    // net: 6-slot bus cycles of sealed 6-word frames.
    let frame = sealed_frame(1);
    let mut bus = Bus::new(BusConfig::round_robin(6, 4));
    sample(
        tr,
        "probe.net.bus_cycle",
        budget,
        || (),
        |_| {
            for _ in 0..100 {
                bus.start_cycle();
                for node in NODES {
                    bus.transmit_static(node, frame.clone()).expect("own slot");
                }
                black_box(bus.finish_cycle());
            }
            100
        },
    );
    let mut injector =
        NetFaultInjector::new(storm_plan(), RngStream::new(0x5708).fork("net-injector"));
    let mut storm_bus = Bus::new(BusConfig::round_robin(6, 4));
    sample(
        tr,
        "probe.net.bus_cycle_storm",
        budget,
        || (),
        |_| {
            for _ in 0..100 {
                storm_bus.start_cycle();
                let silenced = injector.perturb_cycle(&mut storm_bus);
                for node in NODES {
                    if !silenced.contains(&node) {
                        let _ = storm_bus.transmit_static(node, frame.clone());
                    }
                }
                black_box(storm_bus.finish_cycle());
            }
            100
        },
    );

    // sim: CRC, labelled RNG forks, the (m,k) window monitor.
    let bytes: Vec<u8> = frame.iter().flat_map(|w| w.to_le_bytes()).collect();
    sample(
        tr,
        "probe.sim.crc32_word",
        budget,
        || (),
        |_| {
            for _ in 0..1000 {
                black_box(crc32(black_box(&bytes)));
            }
            1000 * frame.len() as u64
        },
    );
    let root = RngStream::new(0x2005);
    let mut index = 0u64;
    sample(
        tr,
        "probe.sim.rng_fork",
        budget,
        || (),
        |_| {
            for _ in 0..1000 {
                index += 1;
                black_box(root.fork_indexed("scenario-trial", index));
            }
            1000
        },
    );
    let mut monitor = WeaklyHard::new(2, 8);
    let mut outcome = 0u64;
    sample(
        tr,
        "probe.sim.wh_record",
        budget,
        || (),
        |_| {
            for _ in 0..5000 {
                outcome += 1;
                black_box(monitor.record(outcome.is_multiple_of(5)));
            }
            5000
        },
    );

    // engine: per-trial and per-campaign fixed costs.
    sample(
        tr,
        "probe.engine.trial_1w",
        budget,
        || (),
        |_| empty_trials(20_000, 1),
    );
    sample(
        tr,
        "probe.engine.trial_nw",
        budget,
        || (),
        |_| empty_trials(20_000, workers),
    );
    sample(
        tr,
        "probe.engine.campaign_fixed",
        budget,
        || (),
        |_| {
            for _ in 0..10 {
                empty_trials(1, workers);
            }
            10
        },
    );
}

/// Instructions per clean TEM job (both copies), averaged over the
/// cluster's six jobs.
pub fn instructions_per_tem_job() -> f64 {
    let jobs = cluster_jobs();
    2.0 * jobs.iter().map(instructions).sum::<u64>() as f64 / jobs.len() as f64
}
