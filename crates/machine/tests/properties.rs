//! Property-based tests for the TM32 machine.

use nlft_machine::asm::{assemble, disassemble};
use nlft_machine::fault::{
    run_with_injection, run_with_stuck_at, FaultSpace, FaultTarget, StuckAtFault, TransientFault,
};
use nlft_machine::isa::{Instr, Reg};
use nlft_machine::machine::{Machine, RunExit, RunOutcome, Step};
use nlft_machine::mem::{EccMemory, MemError};
use nlft_machine::mmu::{MemoryMap, Perms, Region};
use nlft_machine::workloads;
use nlft_sim::rng::RngStream;
use nlft_testkit::prop::{gens, Suite};
use nlft_testkit::rng::TkRng;
use nlft_testkit::{prop_assert, prop_assert_eq};

const SUITE: Suite = Suite::new(0x5EED_00AC);

fn arb_reg(r: &mut TkRng) -> Reg {
    Reg::new(r.range(0, 8) as u8).unwrap()
}

fn arb_i16(r: &mut TkRng) -> i16 {
    r.next_u64() as i16
}

fn arb_u16(r: &mut TkRng) -> u16 {
    r.next_u64() as u16
}

fn arb_instr(r: &mut TkRng) -> Instr {
    match r.usize_range(0, 22) {
        0 => Instr::Nop,
        1 => Instr::Halt,
        2 => Instr::Ret,
        3 => Instr::Ldi(arb_reg(r), arb_i16(r)),
        4 => Instr::Lui(arb_reg(r), arb_u16(r)),
        5 => Instr::Ld(arb_reg(r), arb_reg(r), arb_i16(r)),
        6 => Instr::St(arb_reg(r), arb_reg(r), arb_i16(r)),
        7 => Instr::Mov(arb_reg(r), arb_reg(r)),
        8 => Instr::Add(arb_reg(r), arb_reg(r), arb_reg(r)),
        9 => Instr::Sub(arb_reg(r), arb_reg(r), arb_reg(r)),
        10 => Instr::Mul(arb_reg(r), arb_reg(r), arb_reg(r)),
        11 => Instr::Div(arb_reg(r), arb_reg(r), arb_reg(r)),
        12 => Instr::Xor(arb_reg(r), arb_reg(r), arb_reg(r)),
        13 => Instr::Addi(arb_reg(r), arb_reg(r), arb_i16(r)),
        14 => Instr::Cmp(arb_reg(r), arb_reg(r)),
        15 => Instr::Jmp(arb_u16(r)),
        16 => Instr::Jz(arb_u16(r)),
        17 => Instr::Call(arb_u16(r)),
        18 => Instr::Push(arb_reg(r)),
        19 => Instr::Pop(arb_reg(r)),
        20 => Instr::In(arb_reg(r), r.range(0, 16) as u16),
        _ => Instr::Out(arb_reg(r), r.range(0, 16) as u16),
    }
}

/// Every instruction round-trips through encode/decode.
#[test]
fn isa_encode_decode_roundtrip() {
    SUITE.check("isa_encode_decode_roundtrip", arb_instr, |&instr| {
        prop_assert_eq!(Instr::decode(instr.encode()).unwrap(), instr);
        Ok(())
    });
}

/// The machine never panics on arbitrary programs — every outcome is a
/// clean halt, budget stop, or a typed exception.
#[test]
fn machine_total_on_arbitrary_programs() {
    SUITE.check(
        "machine_total_on_arbitrary_programs",
        {
            let mut words = gens::vec(|r| r.next_u32(), 1..64);
            let mut inputs = gens::vec(|r| r.next_u32(), 16..17);
            move |r: &mut TkRng| (words(r), inputs(r))
        },
        |(words, inputs)| {
            let mut m = Machine::new(4096, MemoryMap::permissive());
            m.load_program(0, words).unwrap();
            m.reset(0, 4096);
            for (p, &v) in inputs.iter().enumerate() {
                m.set_input(p, v);
            }
            let out = m.run(10_000);
            match out.exit {
                RunExit::Halted | RunExit::BudgetExhausted | RunExit::Exception(_) => {}
            }
            prop_assert!(
                out.cycles_used <= 10_000 + 8,
                "budget respected modulo one instruction"
            );
            Ok(())
        },
    );
}

/// Disassembly never panics and emits one line per word.
#[test]
fn disassemble_total() {
    SUITE.check(
        "disassemble_total",
        gens::vec(|r| r.next_u32(), 0..64),
        |words| {
            let text = disassemble(words);
            prop_assert_eq!(text.lines().count(), words.len());
            Ok(())
        },
    );
}

/// Two machines running the same program with the same injected fault
/// behave identically (campaigns are exactly replayable).
#[test]
fn injection_is_deterministic() {
    SUITE.check(
        "injection_is_deterministic",
        |r: &mut TkRng| (r.next_u64(), r.range(1, 2000)),
        |&(seed, cycle)| {
            let w = workloads::pid_controller();
            let mut rng = RngStream::new(seed);
            let fault = FaultSpace::cpu_only().sample(&mut rng);

            let run = |fault, cycle| {
                let mut m = w.instantiate();
                m.set_input(0, 1200);
                m.set_input(1, 800);
                let (out, injected) = run_with_injection(&mut m, 20_000, cycle, fault);
                (out, injected, *m.outputs())
            };
            let a = run(fault, cycle);
            let b = run(fault, cycle);
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1, b.1);
            prop_assert_eq!(a.2, b.2);
            Ok(())
        },
    );
}

/// The golden PID command is always within the actuator range for any
/// inputs in the sensor range.
#[test]
fn pid_output_always_in_actuator_range() {
    SUITE.check(
        "pid_output_always_in_actuator_range",
        |r: &mut TkRng| (r.range(0, 4096) as u32, r.range(0, 4096) as u32),
        |&(sp, meas)| {
            let w = workloads::pid_controller();
            let (out, _) = w.golden_run(&[sp, meas]);
            let u = out[0].expect("pid always writes its output");
            prop_assert!(u <= 4095, "command {u} exceeds actuator range");
            Ok(())
        },
    );
}

/// Assembling then disassembling preserves mnemonics for a simple program.
#[test]
fn asm_disasm_consistent() {
    SUITE.check(
        "asm_disasm_consistent",
        |r: &mut TkRng| r.range(1, 50) as u32,
        |&n| {
            let src = format!("ldi r0, {n}\naddi r0, r0, 1\nhalt");
            let image = assemble(&src).unwrap();
            let text = disassemble(&image.words);
            let expected = format!("ldi r0, {}", n);
            prop_assert!(text.contains(&expected));
            prop_assert!(text.contains("halt"));
            Ok(())
        },
    );
}

/// A stuck bit re-manifests every time it is asserted: however the program
/// rewrites the target between instructions, re-asserting the fault forces
/// the bit back, on every single read/execute, until the fault is cleared —
/// after which the target holds whatever is written to it.
#[test]
fn stuck_at_bit_remanifests_until_cleared() {
    use nlft_machine::fault::{FaultTarget, StuckAtFault};

    SUITE.check(
        "stuck_at_bit_remanifests_until_cleared",
        |r: &mut TkRng| {
            (
                r.range(0, 8) as u8,   // register
                r.range(0, 32) as u32, // bit index
                r.next_u64() & 1 == 1, // stuck high?
                r.range(10, 200),      // steps to run
            )
        },
        |&(reg, bit_index, stuck_high, steps)| {
            let reg = Reg::new(reg).unwrap();
            let stuck = StuckAtFault {
                target: FaultTarget::Register(reg),
                bit: 1 << bit_index,
                stuck_high,
            };
            let w = workloads::pid_controller();
            let mut m = w.instantiate();
            m.set_input(0, 1500);
            m.set_input(1, 700);
            for _ in 0..steps {
                stuck.assert_on(&mut m);
                // Immediately after assertion the bit must read forced.
                let v = m.cpu.reg(reg);
                if stuck_high {
                    prop_assert!(v & stuck.bit != 0, "stuck-high bit read as 0");
                } else {
                    prop_assert!(v & stuck.bit == 0, "stuck-low bit read as 1");
                }
                if m.step().is_err() {
                    break; // an EDM fired; the fault model still held so far
                }
            }
            // Cleared: stop asserting and the target is writable again.
            let wanted = if stuck_high { 0u32 } else { stuck.bit };
            m.cpu.set_reg(reg, wanted);
            prop_assert_eq!(m.cpu.reg(reg), wanted, "cleared bit must stick");
            Ok(())
        },
    );
}

/// The decoded-instruction cache is bit-invisible: for arbitrary programs
/// and arbitrary single-event upsets drawn from the full SEU space
/// (registers, PC, SP, status, and memory words — including instruction
/// memory), a cached and an uncached machine produce identical exits,
/// cycle counts, injection decisions, outputs, architectural state, traces
/// and ECC statistics, with ECC both on and off.
#[test]
fn decode_cache_is_bit_invisible_under_fault_injection() {
    SUITE.check(
        "decode_cache_is_bit_invisible_under_fault_injection",
        {
            let mut words = gens::vec(|r| r.next_u32(), 1..64);
            move |r: &mut TkRng| {
                (
                    words(r),
                    r.next_u64(),          // fault seed
                    r.range(1, 2000),      // injection cycle
                    r.next_u64() & 1 == 1, // ECC enabled?
                )
            }
        },
        |(words, seed, cycle, ecc)| {
            let run = |cached: bool| {
                let mut m = if *ecc {
                    Machine::new(4096, MemoryMap::permissive())
                } else {
                    Machine::new_without_ecc(4096, MemoryMap::permissive())
                };
                m.set_decode_cache_enabled(cached);
                m.enable_trace(4096);
                m.load_program(0, words).unwrap();
                m.reset(0, 4096);
                let mut rng = RngStream::new(*seed);
                let fault = FaultSpace::seu(4096).sample(&mut rng);
                let (out, injected) = run_with_injection(&mut m, 5_000, *cycle, fault);
                let trace: Vec<_> = m.trace().copied().collect();
                (
                    out,
                    injected,
                    *m.outputs(),
                    m.cpu.clone(),
                    trace,
                    m.mem.ecc_stats(),
                )
            };
            let cached = run(true);
            let uncached = run(false);
            prop_assert_eq!(&cached.0, &uncached.0, "exit and cycle count differ");
            prop_assert_eq!(cached.1, uncached.1, "injection decision differs");
            prop_assert_eq!(&cached.2, &uncached.2, "outputs differ");
            prop_assert_eq!(&cached.3, &uncached.3, "architectural state differs");
            prop_assert_eq!(&cached.4, &uncached.4, "traces differ");
            prop_assert_eq!(&cached.5, &uncached.5, "ECC statistics differ");
            Ok(())
        },
    );
}

/// The cache stays bit-invisible across the campaign reuse pattern: flips
/// pre-planted in instruction memory, a run, `clear_faults`, a *second*
/// program loaded over the first, and a second run. Every phase must match
/// the uncached machine exactly — this exercises slots left filled across
/// `inject_flip`, `clear_faults` and a program reload, and the word-tag
/// check for ECC-off corrupted fetches.
#[test]
fn decode_cache_is_bit_invisible_across_reuse_and_reload() {
    SUITE.check(
        "decode_cache_is_bit_invisible_across_reuse_and_reload",
        {
            let mut first = gens::vec(|r| r.next_u32(), 1..48);
            let mut second = gens::vec(|r| r.next_u32(), 1..48);
            move |r: &mut TkRng| {
                let flips: Vec<(u32, u32)> = (0..r.usize_range(1, 4))
                    .map(|_| (r.range(0, 48) as u32 * 4, 1 << r.range(0, 32)))
                    .collect();
                (first(r), second(r), flips, r.next_u64() & 1 == 1)
            }
        },
        |(first, second, flips, ecc)| {
            let run = |cached: bool| {
                let mut m = if *ecc {
                    Machine::new(4096, MemoryMap::permissive())
                } else {
                    Machine::new_without_ecc(4096, MemoryMap::permissive())
                };
                m.set_decode_cache_enabled(cached);
                m.load_program(0, first).unwrap();
                m.reset(0, 4096);
                for &(addr, mask) in flips {
                    m.mem.inject_flip(addr, mask);
                }
                let out_a = m.run(2_000);
                let snap_a = (out_a, m.cpu.clone(), m.mem.ecc_stats());
                m.mem.clear_faults();
                m.load_program(0, second).unwrap();
                m.reset(0, 4096);
                let out_b = m.run(2_000);
                (snap_a, (out_b, m.cpu.clone(), m.mem.ecc_stats()))
            };
            let cached = run(true);
            let uncached = run(false);
            prop_assert_eq!(&cached.0, &uncached.0, "first phase differs");
            prop_assert_eq!(&cached.1, &uncached.1, "second phase differs");
            Ok(())
        },
    );
}

/// Words of code in the map/store/replacement differential's programs at
/// most; every map below covers them.
const CODE_WORDS: u64 = 40;

/// An instruction for the map/store/replacement differential: jump
/// targets and memory offsets mostly land in the program itself, so stores
/// rewrite the code that is running.
fn arb_code_instr(r: &mut TkRng) -> Instr {
    let code_addr = |r: &mut TkRng| (r.range(0, CODE_WORDS) * 4) as u16;
    match r.usize_range(0, 19) {
        0 => Instr::Ldi(arb_reg(r), arb_i16(r)),
        1 => Instr::Addi(arb_reg(r), arb_reg(r), r.range(0, 8) as i16 - 4),
        2 => Instr::Add(arb_reg(r), arb_reg(r), arb_reg(r)),
        3 => Instr::Sub(arb_reg(r), arb_reg(r), arb_reg(r)),
        4 => Instr::Cmp(arb_reg(r), arb_reg(r)),
        5 => Instr::Jnz(code_addr(r)),
        6 => Instr::Jz(code_addr(r)),
        7 => Instr::Jmp(code_addr(r)),
        8 | 9 => Instr::St(arb_reg(r), arb_reg(r), code_addr(r) as i16),
        10 => Instr::Ld(arb_reg(r), arb_reg(r), code_addr(r) as i16),
        11 => Instr::Out(arb_reg(r), r.range(0, 16) as u16),
        12 => Instr::Call(code_addr(r)),
        13 => Instr::Ret,
        14 => Instr::Push(arb_reg(r)),
        15 => Instr::Pop(arb_reg(r)),
        16 => Instr::Mul(arb_reg(r), arb_reg(r), arb_reg(r)),
        17 => Instr::Div(arb_reg(r), arb_reg(r), arb_reg(r)),
        _ => Instr::Halt,
    }
}

/// Map `n` of the four the differential switches between: permissive;
/// code RX and data RW; code readable but not executable; code RWX.
fn cache_map(n: usize) -> MemoryMap {
    let code = match n {
        0 => return MemoryMap::permissive(),
        1 => Perms::RX,
        2 => Perms::R,
        _ => Perms {
            read: true,
            write: true,
            execute: true,
        },
    };
    MemoryMap::from_regions(vec![
        Region::new(0, 0x400, code),
        Region::new(0x400, 0xC00, Perms::RW),
    ])
}

/// What happens to both machines between two quanta.
#[derive(Debug, Clone)]
enum CacheEvent {
    /// Install `cache_map(n)`, revoking or granting Execute.
    Map(usize),
    /// Overwrite a code word with `mem.store`, behind the machine's back.
    Patch(u32, u32),
    /// Flip bits of a code word.
    Flip(u32, u32),
    /// Replace `m.mem` with a fresh memory of this many bytes, ECC on or
    /// off, holding the old golden words that fit.
    Replace(u32, bool),
}

fn arb_cache_event(r: &mut TkRng) -> CacheEvent {
    let code_addr = |r: &mut TkRng| (r.range(0, CODE_WORDS) * 4) as u32;
    match r.usize_range(0, 4) {
        0 => CacheEvent::Map(r.usize_range(0, 4)),
        1 => {
            let word = if r.bool() {
                arb_code_instr(r).encode()
            } else {
                r.next_u32()
            };
            CacheEvent::Patch(code_addr(r), word)
        }
        2 => CacheEvent::Flip(code_addr(r), 1 << r.range(0, 32)),
        _ => CacheEvent::Replace([4096, 2048, 256, 64][r.usize_range(0, 4)], r.bool()),
    }
}

fn apply_cache_event(m: &mut Machine, event: &CacheEvent) {
    match *event {
        CacheEvent::Map(n) => m.set_memory_map(cache_map(n)),
        CacheEvent::Patch(addr, word) => drop(m.mem.store(addr, word)),
        CacheEvent::Flip(addr, mask) => drop(m.mem.inject_flip(addr, mask)),
        CacheEvent::Replace(bytes, ecc) => {
            let mut mem = if ecc {
                EccMemory::new(bytes)
            } else {
                EccMemory::new_without_ecc(bytes)
            };
            let keep = (bytes.min(m.mem.size_bytes()) / 4) as usize;
            let words = m.mem.peek_words(0, keep).unwrap().to_vec();
            mem.store_words(0, &words).unwrap();
            m.mem = mem;
        }
    }
}

/// The decoded-instruction cache is bit-invisible in every case that
/// empties or bypasses its slots: a map switch between quanta (revoking
/// and granting Execute), program stores into the code region under a
/// writable map, direct `mem.store` patches, bit flips, and `m.mem`
/// replaced by a memory that is smaller or has ECC off. After every
/// quantum a cached and an uncached machine have the same exit and cycle
/// count, outputs, CPU state, ECC statistics and memory words, and
/// neither panics.
#[test]
fn decode_cache_is_bit_invisible_across_maps_stores_and_memory_swaps() {
    SUITE.check(
        "decode_cache_is_bit_invisible_across_maps_stores_and_memory_swaps",
        {
            let mut code = gens::vec(|r| arb_code_instr(r).encode(), 4..CODE_WORDS as usize);
            let mut plan = gens::vec(|r| (r.range(1, 300), arb_cache_event(r)), 1..16);
            move |r: &mut TkRng| (code(r), plan(r), r.usize_range(0, 4), r.bool())
        },
        |(code, plan, map, ecc)| {
            let fresh = |cached: bool| {
                let mut m = if *ecc {
                    Machine::new(4096, cache_map(*map))
                } else {
                    Machine::new_without_ecc(4096, cache_map(*map))
                };
                m.set_decode_cache_enabled(cached);
                m.load_program(0, code).unwrap();
                m.reset(0, 4096);
                m
            };
            let (mut cached, mut uncached) = (fresh(true), fresh(false));
            for (step, (quantum, event)) in plan.iter().enumerate() {
                let a = cached.run(*quantum);
                let b = uncached.run(*quantum);
                prop_assert_eq!(&a, &b, "step {step}: exit and cycle count differ");
                prop_assert_eq!(cached.outputs(), uncached.outputs(), "step {step}");
                prop_assert_eq!(&cached.cpu, &uncached.cpu, "step {step}: CPU state");
                prop_assert_eq!(
                    cached.mem.ecc_stats(),
                    uncached.mem.ecc_stats(),
                    "step {step}"
                );
                let words = (cached.mem.size_bytes() / 4) as usize;
                prop_assert_eq!(
                    cached.mem.peek_words(0, words).unwrap(),
                    uncached.mem.peek_words(0, words).unwrap(),
                    "step {step}: memory differs"
                );
                if a.exit != RunExit::BudgetExhausted {
                    cached.reset(0, 4096);
                    uncached.reset(0, 4096);
                }
                apply_cache_event(&mut cached, event);
                apply_cache_event(&mut uncached, event);
            }
            Ok(())
        },
    );
}

/// The parent of the one-loop interpreter's `Machine::run`: one
/// `Machine::step` at a time, the budget checked before each. It is the
/// reference `run_matches_the_stepwise_reference` holds `run` to.
fn run_stepwise(m: &mut Machine, cycle_budget: u64) -> RunOutcome {
    let start = m.cpu.cycles;
    loop {
        let used = m.cpu.cycles - start;
        if used >= cycle_budget {
            return RunOutcome {
                exit: RunExit::BudgetExhausted,
                cycles_used: used,
            };
        }
        let exit = match m.step() {
            Ok(Step::Running) => continue,
            Ok(Step::Halted) => RunExit::Halted,
            Err(e) => RunExit::Exception(e),
        };
        return RunOutcome {
            exit,
            cycles_used: m.cpu.cycles - start,
        };
    }
}

/// What happens to both machines of the stepwise differential, in order.
#[derive(Debug, Clone)]
enum Act {
    /// `run` (or the reference loop) with this cycle budget.
    Run(u64),
    /// `run_with_stuck_at` with this fault and cycle budget.
    StuckAt(StuckAtFault, u64),
    /// A single-event upset: a register, PC, SP or status flip, or one or
    /// two flipped bits of a code or data word.
    Upset(TransientFault),
}

fn arb_target(r: &mut TkRng) -> FaultTarget {
    match r.usize_range(0, 6) {
        0 => FaultTarget::Pc,
        1 => FaultTarget::Sp,
        2 => FaultTarget::Status,
        3 => FaultTarget::MemoryWord((r.range(0, CODE_WORDS) * 4) as u32),
        4 => FaultTarget::MemoryWord(0x400 + (r.range(0, 16) * 4) as u32),
        _ => FaultTarget::Register(arb_reg(r)),
    }
}

fn arb_act(r: &mut TkRng) -> Act {
    // Mostly short budgets, so many end inside a MUL, DIV or CALL.
    let budget = |r: &mut TkRng| {
        if r.range(0, 4) == 0 {
            r.range(0, 400)
        } else {
            r.range(1, 24)
        }
    };
    match r.usize_range(0, 8) {
        0..=3 => Act::Run(budget(r)),
        4 => Act::StuckAt(
            StuckAtFault {
                target: arb_target(r),
                bit: 1 << r.range(0, 32),
                stuck_high: r.bool(),
            },
            budget(r),
        ),
        _ => {
            let mut mask = 1 << r.range(0, 32);
            if r.bool() {
                mask |= 1 << r.range(0, 32);
            }
            Act::Upset(TransientFault {
                target: arb_target(r),
                mask,
            })
        }
    }
}

/// The one-loop interpreter matches the stepwise reference: random
/// self-modifying programs (loads, stores, stack ops, calls, returns,
/// multi-cycle MUL and DIV) run in quanta under plans of single and
/// double bit flips into code, data and registers and of stuck-at runs,
/// with ECC, the decode cache and the trace each on or off, against the
/// reference on an uncached machine. After every quantum both have the
/// same outcome, CPU state (cycles and path signature included), outputs,
/// ECC counters, change counter and memory, and the same trace when it
/// is on.
#[test]
fn run_matches_the_stepwise_reference() {
    SUITE.check(
        "run_matches_the_stepwise_reference",
        {
            let mut code = gens::vec(|r| arb_code_instr(r).encode(), 4..CODE_WORDS as usize);
            let mut plan = gens::vec(arb_act, 1..24);
            move |r: &mut TkRng| {
                let switches = [r.bool(), r.bool(), r.bool()];
                (code(r), plan(r), r.usize_range(0, 4), switches)
            }
        },
        |(code, plan, map, [ecc, cached, traced])| {
            let fresh = |cached: bool| {
                let mut m = if *ecc {
                    Machine::new(4096, cache_map(*map))
                } else {
                    Machine::new_without_ecc(4096, cache_map(*map))
                };
                m.set_decode_cache_enabled(cached);
                if *traced {
                    m.enable_trace(64);
                }
                m.load_program(0, code).unwrap();
                m.reset(0, 4096);
                m
            };
            let (mut subject, mut reference) = (fresh(*cached), fresh(false));
            for (step, act) in plan.iter().enumerate() {
                let (a, b) = match *act {
                    Act::Run(budget) => (subject.run(budget), run_stepwise(&mut reference, budget)),
                    Act::StuckAt(fault, budget) => (
                        run_with_stuck_at(&mut subject, budget, fault),
                        run_with_stuck_at(&mut reference, budget, fault),
                    ),
                    Act::Upset(fault) => {
                        fault.apply(&mut subject);
                        fault.apply(&mut reference);
                        continue;
                    }
                };
                prop_assert_eq!(&a, &b, "step {step}: {act:?}: outcome differs");
                prop_assert_eq!(&subject.cpu, &reference.cpu, "step {step}: CPU state");
                prop_assert_eq!(subject.outputs(), reference.outputs(), "step {step}");
                prop_assert_eq!(
                    subject.mem.ecc_stats(),
                    reference.mem.ecc_stats(),
                    "step {step}"
                );
                prop_assert_eq!(
                    subject.mem.generation(),
                    reference.mem.generation(),
                    "step {step}: change counter"
                );
                prop_assert_eq!(
                    subject.mem.peek_words(0, 1024).unwrap(),
                    reference.mem.peek_words(0, 1024).unwrap(),
                    "step {step}: memory differs"
                );
                prop_assert!(
                    subject.trace().eq(reference.trace()),
                    "step {step}: traces differ"
                );
                if a.exit != RunExit::BudgetExhausted && step % 2 == 0 {
                    subject.reset(0, 4096);
                    reference.reset(0, 4096);
                }
            }
            Ok(())
        },
    );
}

/// EDM classification of a stuck-at fault is consistent: running the same
/// workload against the same stuck bit always ends the same way (same exit,
/// same cycle count, same outputs) — a permanent fault produces a *stable*
/// error signature, which is what lets the diagnosis layer separate it from
/// transient bad luck.
#[test]
fn stuck_at_detection_classifies_consistently() {
    use nlft_machine::fault::{run_with_stuck_at, FaultModel, FaultSpace};

    SUITE.check(
        "stuck_at_detection_classifies_consistently",
        |r: &mut TkRng| r.next_u64(),
        |&seed| {
            let mut rng = RngStream::new(seed);
            let space = FaultSpace::cpu_only().with_stuck_at(1.0);
            let FaultModel::StuckAt(stuck) = space.sample_model(&mut rng) else {
                unreachable!("fraction 1.0 always draws stuck-at");
            };
            let w = workloads::sum_series();
            let run = || {
                let mut m = w.instantiate();
                m.set_input(0, 120);
                let out = run_with_stuck_at(&mut m, 30_000, stuck);
                (out, *m.outputs())
            };
            let a = run();
            let b = run();
            prop_assert_eq!(a.0, b.0, "exit and cycles must repeat exactly");
            prop_assert_eq!(a.1, b.1, "outputs must repeat exactly");
            Ok(())
        },
    );
}

/// Words in the memory the range-op differential runs on: not a multiple
/// of 64, so ranges end mid-way through a dirty-bitset word.
const DIFF_WORDS: u32 = 150;

/// One step of the range-op differential.
#[derive(Debug, Clone)]
enum MemOp {
    Store(u32, u32),
    Inject(u32, u32),
    ClearFaults,
    Load(u32),
    StoreWords(u32, Vec<u32>),
    LoadWords(u32, usize),
    PeekWords(u32, usize),
    Reset,
}

/// A byte address near the memory: mostly word-aligned and in range,
/// sometimes past the end, occasionally misaligned.
fn arb_addr(r: &mut TkRng) -> u32 {
    let addr = r.range(0, u64::from(DIFF_WORDS) + 8) as u32 * 4;
    if r.range(0, 16) == 0 {
        addr + r.range(1, 4) as u32
    } else {
        addr
    }
}

fn arb_mem_op(r: &mut TkRng) -> MemOp {
    match r.usize_range(0, 7) {
        0 => MemOp::Store(arb_addr(r), r.next_u32()),
        // Flip one bit or two: both SEC and DED paths.
        1 => {
            let mut mask = 1 << r.range(0, 32);
            if r.bool() {
                mask |= 1 << r.range(0, 32);
            }
            MemOp::Inject(arb_addr(r), mask)
        }
        2 => MemOp::ClearFaults,
        3 => MemOp::Load(arb_addr(r)),
        4 => {
            let len = r.usize_range(0, 80);
            MemOp::StoreWords(arb_addr(r), (0..len).map(|_| r.next_u32()).collect())
        }
        5 => MemOp::LoadWords(arb_addr(r), r.usize_range(0, 80)),
        _ => MemOp::PeekWords(arb_addr(r), r.usize_range(0, 80)),
    }
}

/// Per-word reference for a range's validity: the first invalid word's
/// error, found with side-effect-free peeks.
fn check_range_per_word(m: &EccMemory, base: u32, len: usize) -> Result<(), MemError> {
    (0..len as u32).try_for_each(|i| m.peek(base + i * 4).map(drop))
}

/// Applies `op` with the range operations (`by_range`) or with one
/// per-word operation per word, returning the words it read.
fn apply_mem_op(m: &mut EccMemory, op: &MemOp, by_range: bool) -> Result<Vec<u32>, MemError> {
    match op {
        MemOp::Store(addr, value) => m.store(*addr, *value).map(|()| vec![]),
        MemOp::Inject(addr, mask) => Ok(vec![u32::from(m.inject_flip(*addr, *mask))]),
        MemOp::ClearFaults => {
            m.clear_faults();
            Ok(vec![])
        }
        MemOp::Reset => {
            m.reset();
            Ok(vec![])
        }
        MemOp::Load(addr) => m.load(*addr).map(|w| vec![w]),
        MemOp::StoreWords(base, words) if by_range => m.store_words(*base, words).map(|()| vec![]),
        MemOp::StoreWords(base, words) => {
            check_range_per_word(m, *base, words.len())?;
            for (i, &w) in (0u32..).zip(words) {
                m.store(base + i * 4, w)?;
            }
            Ok(vec![])
        }
        // The kernel's state read-back: one slice copy when clean, ECC
        // loads in address order otherwise.
        MemOp::LoadWords(base, len) if by_range && m.words_clean(*base, *len)? => {
            Ok(m.peek_words(*base, *len)?.to_vec())
        }
        MemOp::LoadWords(base, len) => {
            check_range_per_word(m, *base, *len)?;
            (0..*len as u32).map(|i| m.load(base + i * 4)).collect()
        }
        MemOp::PeekWords(base, len) if by_range => Ok(m.peek_words(*base, *len)?.to_vec()),
        MemOp::PeekWords(base, len) => {
            check_range_per_word(m, *base, *len)?;
            (0..*len as u32).map(|i| m.peek(base + i * 4)).collect()
        }
    }
}

/// The range operations (`peek_words`, `store_words`, `words_clean`) are
/// observably identical to their per-word loops: over random sequences of
/// stores, flips, fault clears and loads, with ECC on and off, every
/// operation returns the same words or error, and the memory's words,
/// faulty-word count and ECC counters stay equal.
#[test]
fn range_ops_match_per_word_ops() {
    SUITE.check(
        "range_ops_match_per_word_ops",
        {
            let mut ops = gens::vec(arb_mem_op, 1..40);
            move |r: &mut TkRng| (r.bool(), ops(r))
        },
        |(ecc, ops)| {
            let fresh = || {
                if *ecc {
                    EccMemory::new(DIFF_WORDS * 4)
                } else {
                    EccMemory::new_without_ecc(DIFF_WORDS * 4)
                }
            };
            let (mut ranged, mut per_word) = (fresh(), fresh());
            for (step, op) in ops.iter().enumerate() {
                let a = apply_mem_op(&mut ranged, op, true);
                let b = apply_mem_op(&mut per_word, op, false);
                prop_assert_eq!(&a, &b, "step {step}: {op:?} returned differently");
                prop_assert_eq!(
                    ranged.peek_words(0, DIFF_WORDS as usize).unwrap(),
                    per_word.peek_words(0, DIFF_WORDS as usize).unwrap(),
                    "step {step}: words differ"
                );
                prop_assert_eq!(
                    ranged.faulty_words(),
                    per_word.faulty_words(),
                    "step {step}"
                );
                prop_assert_eq!(ranged.ecc_stats(), per_word.ecc_stats(), "step {step}");
            }
            Ok(())
        },
    );
}

/// Words in the memory the change-counter property runs on: two
/// dirty-bitset words, the second one partly used.
const COUNTER_WORDS: u32 = 70;

/// A step of the change-counter property. Values come from a small
/// alphabet and ranges stay short, so stores often write the value a word
/// already holds.
fn arb_counted_op(r: &mut TkRng) -> MemOp {
    let addr = |r: &mut TkRng| r.range(0, u64::from(COUNTER_WORDS) + 2) as u32 * 4;
    let value = |r: &mut TkRng| r.range(0, 3) as u32;
    match r.usize_range(0, 12) {
        0..=3 => MemOp::Store(addr(r), value(r)),
        4 | 5 => {
            let len = r.usize_range(0, 6);
            MemOp::StoreWords(addr(r), (0..len).map(|_| value(r)).collect())
        }
        6 | 7 => MemOp::Load(addr(r)),
        8 | 9 => {
            let mut mask = 1 << r.range(0, 32);
            if r.bool() {
                mask |= 1 << r.range(0, 32);
            }
            MemOp::Inject(addr(r), mask)
        }
        10 => MemOp::ClearFaults,
        _ => MemOp::Reset,
    }
}

/// The words and injected flips an [`EccMemory`] should hold, kept by
/// hand: what the change counter vouches for.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShadowMemory {
    words: Vec<u32>,
    flips: std::collections::BTreeMap<usize, u32>,
}

impl ShadowMemory {
    /// Applies `op` as the memory documents it, given whether the real
    /// operation succeeded (address validity is not this property's
    /// subject).
    fn apply(&mut self, op: &MemOp, ecc: bool, succeeded: bool) {
        let idx = |addr: u32| (addr / 4) as usize;
        match op {
            _ if !succeeded => {}
            MemOp::Store(addr, value) => {
                self.words[idx(*addr)] = *value;
                self.flips.remove(&idx(*addr));
            }
            MemOp::StoreWords(base, words) => {
                for (i, &w) in words.iter().enumerate() {
                    self.words[idx(*base) + i] = w;
                    self.flips.remove(&(idx(*base) + i));
                }
            }
            MemOp::Load(addr) => {
                let i = idx(*addr);
                if ecc && self.flips.get(&i).is_some_and(|m| m.count_ones() == 1) {
                    self.flips.remove(&i);
                }
            }
            MemOp::Inject(addr, mask) => {
                let i = idx(*addr);
                let m = self.flips.entry(i).or_insert(0);
                *m ^= mask;
                if *m == 0 {
                    self.flips.remove(&i);
                }
            }
            MemOp::ClearFaults => self.flips.clear(),
            MemOp::Reset => {
                self.words.fill(0);
                self.flips.clear();
            }
            MemOp::LoadWords(..) | MemOp::PeekWords(..) => {}
        }
    }
}

/// [`EccMemory::generation`] vouches for the memory: over random
/// sequences of stores, range stores, loads, flips, fault clears and
/// resets, with ECC on and off, a step that leaves the counter where it
/// was leaves words and flips unchanged too, and a store or range store
/// moves the counter exactly when it changes a word or clears a flip.
#[test]
fn generation_vouches_for_words_and_flips() {
    SUITE.check(
        "generation_vouches_for_words_and_flips",
        {
            let mut ops = gens::vec(arb_counted_op, 1..60);
            move |r: &mut TkRng| (r.bool(), ops(r))
        },
        |(ecc, ops)| {
            let mut m = if *ecc {
                EccMemory::new(COUNTER_WORDS * 4)
            } else {
                EccMemory::new_without_ecc(COUNTER_WORDS * 4)
            };
            let mut shadow = ShadowMemory {
                words: vec![0; COUNTER_WORDS as usize],
                flips: Default::default(),
            };
            for (step, op) in ops.iter().enumerate() {
                let (before, generation) = (shadow.clone(), m.generation());
                let succeeded = match apply_mem_op(&mut m, op, true) {
                    Ok(read) => !matches!(op, MemOp::Inject(..)) || read == [1],
                    Err(MemError::EccUncorrectable { .. }) => true,
                    Err(_) => false,
                };
                shadow.apply(op, *ecc, succeeded);
                prop_assert_eq!(
                    m.peek_words(0, COUNTER_WORDS as usize).unwrap(),
                    &shadow.words[..],
                    "step {step}: {op:?}: words differ from the shadow"
                );
                prop_assert_eq!(m.faulty_words(), shadow.flips.len(), "step {step}: {op:?}");
                let moved = m.generation() != generation;
                if !moved {
                    prop_assert_eq!(
                        &shadow,
                        &before,
                        "step {step}: {op:?} changed memory unseen"
                    );
                }
                if matches!(op, MemOp::Store(..) | MemOp::StoreWords(..)) {
                    prop_assert_eq!(
                        moved,
                        shadow != before,
                        "step {step}: {op:?}: the counter must move exactly on a change"
                    );
                }
            }
            Ok(())
        },
    );
}
