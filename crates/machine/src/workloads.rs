//! Canonical task workloads for experiments.
//!
//! Real TM32 assembly programs in the *read input → compute → write output*
//! shape of the paper's task model (Fig. 2). They are the payloads the
//! fault-injection campaigns and the kernel tests execute:
//!
//! * [`pid_controller`] — the wheel-node brake-force regulator (the paper's
//!   motivating brake-by-wire application);
//! * [`brake_distribution`] — the central-unit pedal-to-wheel force split;
//! * [`checksum_block`] — a data-traversal workload exercising memory;
//! * [`sum_series`] — a tight arithmetic loop, the smallest useful victim.
//!
//! All workloads use the same memory layout so one [`MemoryMap`] template
//! confines any of them: code (RX) in `[0, 0x400)`, task data (RW) in
//! `[0x400, 0x800)`, stack (RW) in `[0x800, 0x1000)`.

use std::sync::LazyLock;

use crate::asm::{assemble, Image};
use crate::machine::{Machine, RunExit, NUM_PORTS};
use crate::mmu::{MemoryMap, Perms, Region};

/// Memory size every workload machine uses.
pub const MEM_BYTES: u32 = 4096;
/// Start of the read-write data region.
pub const DATA_BASE: u32 = 0x400;
/// Initial stack pointer (top of the stack region).
pub const STACK_TOP: u32 = 0x1000;
/// Generous cycle budget for a clean run of any standard workload.
pub const DEFAULT_BUDGET: u64 = 50_000;

/// A ready-to-run task program with its confinement map and port wiring.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Short identifier, e.g. `"pid"`.
    pub name: &'static str,
    /// Assembled program image (loaded at address 0).
    pub image: Image,
    /// MMU map confining the task.
    pub map: MemoryMap,
    /// Input ports the workload reads.
    pub input_ports: Vec<usize>,
    /// Output ports the workload writes.
    pub output_ports: Vec<usize>,
}

impl Workload {
    /// Builds a fresh machine loaded with this workload, reset and confined.
    pub fn instantiate(&self) -> Machine {
        let mut m = Machine::new(MEM_BYTES, self.map.clone());
        m.load_program(0, &self.image.words)
            .expect("workload image fits standard memory");
        m.reset(0, STACK_TOP);
        m
    }

    /// Runs the workload cleanly with the given inputs and returns the
    /// output-port vector and consumed cycles — the golden reference for
    /// fault-injection comparison.
    ///
    /// # Panics
    ///
    /// Panics if the clean run does not halt within [`DEFAULT_BUDGET`]
    /// cycles — a workload bug, not an experiment outcome.
    pub fn golden_run(&self, inputs: &[u32]) -> ([Option<u32>; NUM_PORTS], u64) {
        let mut m = self.instantiate();
        for (&port, &v) in self.input_ports.iter().zip(inputs) {
            m.set_input(port, v);
        }
        let out = m.run(DEFAULT_BUDGET);
        assert_eq!(
            out.exit,
            RunExit::Halted,
            "golden run of `{}` must halt, got {:?}",
            self.name,
            out.exit
        );
        (*m.outputs(), out.cycles_used)
    }
}

/// The standard confinement map shared by all workloads.
pub fn standard_map() -> MemoryMap {
    MemoryMap::from_regions(vec![
        Region::new(0, DATA_BASE, Perms::RX),
        Region::new(DATA_BASE, 0x400, Perms::RW),
        Region::new(0x800, 0x800, Perms::RW),
    ])
}

fn build(name: &'static str, src: &str, inputs: &[usize], outputs: &[usize]) -> Workload {
    Workload {
        name,
        image: assemble(src).unwrap_or_else(|e| panic!("workload `{name}`: {e}")),
        map: standard_map(),
        input_ports: inputs.to_vec(),
        output_ports: outputs.to_vec(),
    }
}

/// Sum of `1..=N`, with `N` on port 0; result on port 0.
pub fn sum_series() -> Workload {
    build(
        "sum",
        "
            in   r0, port0       ; N
            ldi  r1, 0           ; acc
            ldi  r2, 1
            cmp  r0, r1          ; guard: N == 0 sums to 0
            jz   done
        loop:
            add  r1, r1, r0
            sub  r0, r0, r2
            jnz  loop
        done:
            out  r1, port0
            halt
        ",
        &[0],
        &[0],
    )
}

/// A fixed-gain integer PID brake-force regulator — the wheel-node control
/// task of the brake-by-wire case study.
///
/// Inputs: port 0 = set-point force, port 1 = measured force.
/// Output: port 0 = actuator command, clamped to `[0, 4095]`.
/// State (integral term, previous error) lives at [`DATA_BASE`], so the
/// workload also exercises stores — the path end-to-end checks protect.
pub fn pid_controller() -> Workload {
    build(
        "pid",
        "
            in   r0, port0       ; setpoint
            in   r1, port1       ; measured
            sub  r2, r0, r1      ; e = sp - meas
            ldi  r6, 0x400       ; state base
            ld   r3, [r6+0]      ; integral
            add  r3, r3, r2
            ldi  r4, 2047        ; clamp integral high
            cmp  r3, r4
            jn   i_hi_ok
            mov  r3, r4
        i_hi_ok:
            ldi  r4, -2048       ; clamp integral low
            cmp  r4, r3
            jn   i_lo_ok
            mov  r3, r4
        i_lo_ok:
            st   r3, [r6+0]
            ld   r4, [r6+4]      ; prev error
            sub  r5, r2, r4      ; derivative
            st   r2, [r6+4]
            ldi  r7, 8
            mul  r0, r2, r7      ; 8*e
            ldi  r7, 2
            mul  r1, r3, r7      ; 2*I
            add  r0, r0, r1
            add  r0, r0, r5      ; + d
            ldi  r7, 16
            div  r0, r0, r7      ; scale
            ldi  r7, 0
            cmp  r0, r7
            jge  u_pos
            mov  r0, r7
        u_pos:
            ldi  r7, 4095
            cmp  r0, r7
            jn   u_ok
            mov  r0, r7
        u_ok:
            out  r0, port0
            halt
        ",
        &[0, 1],
        &[0],
    )
}

/// Central-unit brake distribution: pedal position on port 0; per-wheel
/// force requests on ports 0–3 (front-biased 60/40 split).
pub fn brake_distribution() -> Workload {
    build(
        "brakedist",
        "
            in   r0, port0       ; pedal 0..4095
            ldi  r1, 2
            mul  r0, r0, r1      ; total demand
            ldi  r1, 3
            mul  r2, r0, r1
            ldi  r1, 10
            div  r2, r2, r1      ; each front wheel: 30%
            ldi  r1, 2
            mul  r3, r0, r1
            ldi  r1, 10
            div  r3, r3, r1      ; each rear wheel: 20%
            out  r2, port0
            out  r2, port1
            out  r3, port2
            out  r3, port3
            halt
        ",
        &[0],
        &[0, 1, 2, 3],
    )
}

/// Mixing checksum over a 32-word constant table — a memory-heavy workload
/// whose output depends on every table bit, so memory corruption that ECC
/// misses shows up in the result.
pub fn checksum_block() -> Workload {
    let mut src = String::from(
        "
            ldi  r0, 0           ; acc
            ldi  r1, table
            ldi  r2, 32          ; count
            ldi  r3, 1
        loop:
            ld   r4, [r1+0]
            add  r0, r0, r4
            ldi  r5, 5
            shl  r5, r0, r5
            xor  r0, r0, r5      ; mix
            addi r1, r1, 4
            sub  r2, r2, r3
            jnz  loop
            out  r0, port0
            halt
        table:
        ",
    );
    // A fixed pseudo-random table (LCG) — deterministic across builds.
    let mut x: u32 = 0x2545_F491;
    for _ in 0..32 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        src.push_str(&format!("            .word {:#010x}\n", x));
    }
    build("checksum", &src, &[], &[0])
}

/// Averaging filter implemented with a real call stack (CALL/PUSH/POP), so
/// stack-pointer faults are *activated* — the paper observed SP faults
/// raising address/bus exceptions (§2.5), which needs stack traffic.
pub fn stacked_average() -> Workload {
    build(
        "stackavg",
        "
            in   r0, port0
            in   r1, port1
            call avg
            in   r1, port2
            call avg
            out  r0, port0
            halt
        avg:
            push r1
            push r2
            add  r0, r0, r1
            ldi  r2, 2
            div  r0, r0, r2
            pop  r2
            pop  r1
            ret
        ",
        &[0, 1, 2],
        &[0],
    )
}

/// An anti-lock-braking slip controller: modulates a requested brake force
/// so wheel slip stays below a threshold.
///
/// Inputs: port 0 = requested force, port 1 = vehicle speed, port 2 =
/// wheel speed (all 0..4095). Output: port 0 = applied force.
/// Slip is `(v - w) * 256 / v`; above the threshold (~20 %) the force is
/// halved, giving the characteristic ABS pumping when iterated.
pub(crate) fn abs_controller() -> Workload {
    build(
        "abs",
        "
            in   r0, port0       ; requested force
            in   r1, port1       ; vehicle speed v
            in   r2, port2       ; wheel speed w
            ldi  r3, 0
            cmp  r1, r3          ; v == 0? no slip computable, apply as-is
            jz   apply
            sub  r4, r1, r2      ; v - w
            cmp  r4, r3          ; negative (wheel overspeed)? treat as 0
            jge  slip_pos
            ldi  r4, 0
        slip_pos:
            ldi  r5, 256
            mul  r4, r4, r5
            div  r4, r4, r1      ; slip = (v-w)*256/v
            ldi  r5, 51          ; threshold: ~20% of 256
            cmp  r4, r5
            jn   apply           ; slip < threshold: full force
            ldi  r5, 2
            div  r0, r0, r5      ; slipping: halve the force
        apply:
            out  r0, port0
            halt
        ",
        &[0, 1, 2],
        &[0],
    )
}

/// All standard workloads, in campaign order.
///
/// Each is assembled once per process and cloned from then on: a
/// workload is a pure function of its source text.
pub fn standard_workloads() -> Vec<Workload> {
    static STANDARD: LazyLock<[Workload; 6]> = LazyLock::new(|| {
        [
            sum_series(),
            pid_controller(),
            brake_distribution(),
            checksum_block(),
            stacked_average(),
            abs_controller(),
        ]
    });
    STANDARD.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_series_golden() {
        let w = sum_series();
        let (out, cycles) = w.golden_run(&[100]);
        assert_eq!(out[0], Some(5050));
        assert!(cycles > 100);
    }

    #[test]
    fn pid_converges_toward_setpoint() {
        let w = pid_controller();
        // First invocation from zero state: e = 1000, u = (8*1000 + 2*1000 + 1000)/16
        // with integral clamped at 2047 ... compute expected directly:
        let (out, _) = w.golden_run(&[1000, 0]);
        let u = out[0].expect("command written") as i32;
        assert!(u > 0, "positive error must give positive command");
        assert!(u <= 4095);
    }

    #[test]
    fn pid_clamps_to_actuator_range() {
        let w = pid_controller();
        // Max error: e = 4095, integral clamps to 2047, derivative = 4095:
        // u = (8*4095 + 2*2047 + 4095) / 16 = 2559 — the documented ceiling
        // of the integer gain schedule, well inside the actuator range.
        let (out, _) = w.golden_run(&[4095, 0]);
        assert_eq!(out[0], Some(2559), "maximum command from gain schedule");
        // Max negative error saturates at the low clamp.
        let (out, _) = w.golden_run(&[0, 4095]);
        assert_eq!(out[0], Some(0), "saturates low");
    }

    #[test]
    fn pid_state_persists_across_invocations() {
        let w = pid_controller();
        let mut m = w.instantiate();
        m.set_input(0, 100);
        m.set_input(1, 90);
        m.run(DEFAULT_BUDGET);
        let first = m.output(0).unwrap();
        // Re-run without clearing memory: the integral term has grown.
        m.reset(0, STACK_TOP);
        m.set_input(0, 100);
        m.set_input(1, 90);
        m.run(DEFAULT_BUDGET);
        let second = m.output(0).unwrap();
        assert!(
            second > first,
            "integral action accumulates: {first} -> {second}"
        );
    }

    #[test]
    fn brake_distribution_split() {
        let w = brake_distribution();
        let (out, _) = w.golden_run(&[1000]);
        assert_eq!(out[0], Some(600)); // front = 2000 * 3 / 10
        assert_eq!(out[1], Some(600));
        assert_eq!(out[2], Some(400)); // rear = 2000 * 2 / 10
        assert_eq!(out[3], Some(400));
    }

    #[test]
    fn checksum_is_stable_and_input_free() {
        let w = checksum_block();
        let (a, _) = w.golden_run(&[]);
        let (b, _) = w.golden_run(&[]);
        assert_eq!(a[0], b[0]);
        assert!(a[0].is_some());
    }

    #[test]
    fn abs_passes_force_through_when_grip_is_good() {
        let w = abs_controller();
        // v = 1000, w = 950: slip = 50*256/1000 = 12 < 51.
        let (out, _) = w.golden_run(&[2000, 1000, 950]);
        assert_eq!(out[0], Some(2000));
    }

    #[test]
    fn abs_halves_force_when_wheel_locks() {
        let w = abs_controller();
        // v = 1000, w = 500: slip = 128 >= 51 → halve.
        let (out, _) = w.golden_run(&[2000, 1000, 500]);
        assert_eq!(out[0], Some(1000));
        // Fully locked wheel.
        let (out, _) = w.golden_run(&[2000, 1000, 0]);
        assert_eq!(out[0], Some(1000));
    }

    #[test]
    fn abs_handles_edge_speeds() {
        let w = abs_controller();
        // Standing still: no slip computable, apply requested force.
        let (out, _) = w.golden_run(&[1500, 0, 0]);
        assert_eq!(out[0], Some(1500));
        // Wheel faster than vehicle (spin-up): no braking intervention.
        let (out, _) = w.golden_run(&[1500, 800, 900]);
        assert_eq!(out[0], Some(1500));
    }

    #[test]
    fn all_workloads_halt_within_budget_under_confinement() {
        for w in standard_workloads() {
            let inputs: Vec<u32> = w.input_ports.iter().map(|_| 50).collect();
            let (_, cycles) = w.golden_run(&inputs);
            assert!(
                cycles < DEFAULT_BUDGET,
                "workload {} uses {cycles} cycles",
                w.name
            );
        }
    }

    #[test]
    fn cached_workloads_equal_freshly_built_ones() {
        let fresh = [
            sum_series(),
            pid_controller(),
            brake_distribution(),
            checksum_block(),
            stacked_average(),
            abs_controller(),
        ];
        assert_eq!(standard_workloads(), fresh);
    }

    #[test]
    fn workload_names_are_unique() {
        let ws = standard_workloads();
        let mut names: Vec<_> = ws.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ws.len());
    }

    #[test]
    fn workloads_fit_code_region() {
        for w in standard_workloads() {
            assert!(
                w.image.size_bytes() <= DATA_BASE,
                "workload {} code spills into data region",
                w.name
            );
        }
    }
}
