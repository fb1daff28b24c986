//! The scenario DSL: declarative fault campaigns, one plain-text file each.
//!
//! De Florio & Deconinck's REL argues that fault scenarios and recovery
//! strategies should be an explicit, testable *language* separate from
//! the functional code. This module is the language half of that idea —
//! a sibling of the SHARPE-style [`crate::lang`] parser: a line-oriented
//! syntax that declares, per scenario, the campaign family, trial count
//! and seed, family parameters (or, for `cluster` scenarios, a full
//! topology / fault-plan / contract declaration), and an acceptance
//! clause with an optional golden digest pin.
//!
//! Parsing produces a typed [`ScenarioSpec`] with every probability
//! range-checked at parse time; the compiler onto the executable
//! campaign runners lives downstream (in `nlft-bbw`), keeping this
//! crate dependency-free. [`format_scenario`] renders the canonical
//! form; `format → parse` round-trips every spec to an identical AST,
//! which the zoo property test pins.
//!
//! ```
//! use nlft_reliability::scenario::{parse_scenario, FamilyParams};
//!
//! let spec = parse_scenario(
//!     "scenario smoke\n\
//!      family net_storm\n\
//!      trials 4\n\
//!      seed 0x5708\n\
//!      params\n\
//!        cycles 20\n\
//!      end\n\
//!      end\n",
//! )
//! .unwrap();
//! assert_eq!(spec.name, "smoke");
//! assert!(matches!(spec.params, FamilyParams::NetStorm { cycles: 20, .. }));
//! ```

use std::fmt::Write as _;

use crate::syntax::{
    err, keyword, parse_i64, parse_probability, parse_u32, parse_u64, tokenize, unknown, Cursor,
    Line, ParseError, Token,
};

/// The six stations of the reference brake-by-wire cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeName {
    /// Pedal-side central unit A.
    CuA,
    /// Pedal-side central unit B.
    CuB,
    /// Front-left wheel node.
    WheelFl,
    /// Front-right wheel node.
    WheelFr,
    /// Rear-left wheel node.
    WheelRl,
    /// Rear-right wheel node.
    WheelRr,
}

impl NodeName {
    /// All six nodes in slot order.
    pub const ALL: [NodeName; 6] = [
        NodeName::CuA,
        NodeName::CuB,
        NodeName::WheelFl,
        NodeName::WheelFr,
        NodeName::WheelRl,
        NodeName::WheelRr,
    ];

    /// The DSL keyword for this node.
    pub fn keyword(self) -> &'static str {
        match self {
            NodeName::CuA => "cu_a",
            NodeName::CuB => "cu_b",
            NodeName::WheelFl => "wheel_fl",
            NodeName::WheelFr => "wheel_fr",
            NodeName::WheelRl => "wheel_rl",
            NodeName::WheelRr => "wheel_rr",
        }
    }
}

/// How a cluster station is built: one core, or two cores sharing their
/// brake state through a lock-based or LEFT-RS resource protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The stock single-core station.
    SingleCore,
    /// Dual-core with per-resource spin locks (a mid-section core death
    /// is fatal).
    DualCoreLock,
    /// Dual-core with LEFT-RS lock-free sections (rides a core death
    /// out).
    DualCoreLeftRs,
}

impl NodeKind {
    fn keyword(self) -> &'static str {
        match self {
            NodeKind::SingleCore => "single_core",
            NodeKind::DualCoreLock => "dual_core_lock",
            NodeKind::DualCoreLeftRs => "dual_core_left_rs",
        }
    }
}

/// The pedal-demand profile driving a cluster scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PedalSpec {
    /// A constant demand in force counts.
    Constant(u32),
    /// `min(base + slope * cycle, max)` — an emergency-braking ramp.
    Ramp {
        /// Demand at cycle 0.
        base: u32,
        /// Increase per cycle.
        slope: u32,
        /// Saturation value.
        max: u32,
    },
}

/// A sensor-channel fault in a cluster scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorFaultSpec {
    /// The channel reports a constant value.
    StuckAt(u32),
    /// The channel reports truth plus a constant offset (counts).
    Offset(i64),
    /// The channel's error grows by this many counts per cycle.
    Drift(i64),
    /// The reading jitters within `truth ± amplitude` for `cycles`.
    Noise {
        /// Peak deviation in counts.
        amplitude: u32,
        /// Burst length in cycles.
        cycles: u32,
    },
}

/// A wheel-actuator fault in a cluster scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuatorFaultSpec {
    /// The actuator freezes at its current force.
    Stuck,
    /// The actuator drives toward full force by `step` counts per cycle.
    Runaway {
        /// Force increase per cycle.
        step: u32,
    },
    /// The servo nulls at `demand + 4 * offset`.
    Offset(i64),
}

/// One declarative fault-plan line of a cluster scenario. Each line
/// compiles onto one existing injector: the network plan
/// (`storm` / `rates` / `dynamic` / `blackout`), the machine-level
/// SWIFI faults (`transient` / `stuck_at` / `intermittent` /
/// `core_death`), or the value-domain fault hooks
/// (`sensor` / `actuator` / `silence`).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultLine {
    /// Storm-profile rates on every node, scaled by `intensity`, active
    /// in cycles `[from, until)`.
    Storm {
        /// Storm intensity in `[0, 1]`.
        intensity: f64,
        /// First active cycle (inclusive).
        from: u32,
        /// First inactive cycle (`u32::MAX` = to the end).
        until: u32,
    },
    /// Explicit per-node rates (unlisted rates are zero).
    Rates {
        /// The node the rates apply to.
        node: NodeName,
        /// Per-cycle frame-corruption probability.
        corruption: f64,
        /// Per-cycle slot-omission probability.
        omission: f64,
        /// Per-cycle crash probability.
        crash: f64,
        /// Per-cycle babbling-idiot probability.
        babble: f64,
        /// Per-cycle masquerade probability.
        masquerade: f64,
        /// Per-cycle clock-glitch probability.
        clock_glitch: f64,
    },
    /// Dynamic-segment duplication / reorder rates.
    Dynamic {
        /// Per-cycle duplication probability.
        dup: f64,
        /// Per-cycle reorder probability.
        reorder: f64,
    },
    /// A correlated blackout resetting the listed nodes.
    Blackout {
        /// Cycle in which the burst hits.
        at: u32,
        /// Minimum down time per victim, in cycles.
        down: u32,
        /// Upper bound of the per-victim extra down time.
        stagger: u32,
        /// The victims.
        nodes: Vec<NodeName>,
    },
    /// One machine-level transient (drawn from the CPU-only SEU space)
    /// on a node, at a declared placement.
    Transient {
        /// Victim node.
        node: NodeName,
        /// Cluster cycle in which the fault strikes.
        cycle: u32,
        /// TEM copy index hit (0 or 1).
        copy: u32,
        /// Machine-cycle offset within the copy.
        at: u64,
    },
    /// A permanent stuck-at-one PC bit on a node.
    StuckAtPc {
        /// Victim node.
        node: NodeName,
        /// The stuck bit index (0–31).
        bit: u32,
    },
    /// A recurring burst of PC transients on a node.
    Intermittent {
        /// Victim node.
        node: NodeName,
        /// Per-job recurrence probability inside the burst.
        recurrence: f64,
        /// Burst length in jobs.
        burst: u32,
    },
    /// A core-death fault on a (dual-core) node.
    CoreDeath {
        /// Victim node.
        node: NodeName,
        /// Cluster cycle of the death.
        cycle: u32,
        /// Orderly escalated fail-silence instead of a hard crash.
        escalated: bool,
    },
    /// A pedal-sensor channel fault.
    Sensor {
        /// Channel index (0–2).
        channel: u32,
        /// The fault.
        fault: SensorFaultSpec,
        /// Onset cycle.
        onset: u32,
    },
    /// A wheel-actuator fault.
    Actuator {
        /// Wheel index (0 = FL, 1 = FR, 2 = RL, 3 = RR).
        wheel: u32,
        /// The fault.
        fault: ActuatorFaultSpec,
        /// Onset cycle.
        onset: u32,
    },
    /// Force a node silent for a window of cycles.
    Silence {
        /// Victim node.
        node: NodeName,
        /// Cycles of silence.
        cycles: u32,
    },
}

/// The full declaration of a `cluster` scenario: topology, fault plan
/// and per-wheel weakly-hard service contracts.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Communication cycles per trial.
    pub cycles: u32,
    /// Pedal-demand profile.
    pub pedal: PedalSpec,
    /// Non-default node kinds (unlisted nodes are single-core).
    pub nodes: Vec<(NodeName, NodeKind)>,
    /// Enable the TTP/C-style startup protocol.
    pub startup: bool,
    /// Put every node under α-count supervision with the default
    /// escalation policy.
    pub supervise: bool,
    /// The declarative fault plan, in declaration order.
    pub faults: Vec<FaultLine>,
    /// Per-wheel `(m, k)` service contracts (FL, FR, RL, RR); `None`
    /// keeps the cluster defaults (front 1-in-8, rear 2-in-8).
    pub contracts: Option<[(u32, u32); 4]>,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            cycles: 30,
            pedal: PedalSpec::Constant(1200),
            nodes: Vec::new(),
            startup: false,
            supervise: false,
            faults: Vec::new(),
            contracts: None,
        }
    }
}

/// One `params` value kind: its Rust type, its parse and its canonical
/// text. `on_off` reads `on`/`off`; `[what: no | yes]` reads a keyword
/// pair onto `false`/`true`, naming a bad word an unknown `what`.
#[rustfmt::skip]
macro_rules! kind {
    (type u32) => { u32 };
    (type u64) => { u64 };
    (type probability) => { f64 };
    (type $flag:tt) => { bool };
    (parse u32, $t:expr) => { parse_u32($t) };
    (parse u64, $t:expr) => { parse_u64($t) };
    (parse probability, $t:expr) => { parse_probability($t) };
    (parse on_off, $t:expr) => { parse_on_off($t) };
    (parse [$what:literal: $no:ident | $yes:ident], $t:expr) => {
        keyword($t, $what, &[(stringify!($no), false), (stringify!($yes), true)])
    };
    (show on_off, $v:expr) => { on_off($v) };
    (show [$what:literal: $no:ident | $yes:ident], $v:expr) => {
        if $v { stringify!($yes) } else { stringify!($no) }
    };
    (show $number:tt, $v:expr) => { $v };
}

/// Declares every campaign family's `params` block once. Per family: its
/// [`FamilyParams`] variant and keyword; per `params` line: its keyword
/// and, in operand order, each field it sets with its value kind, the
/// operand's name in a "missing …" error, and its default. Generates
/// [`FamilyParams`], its `family` keyword and defaults, `FAMILIES`, and
/// the `params` block's parse and canonical format. `cluster` declares
/// its own sections and is added by hand.
macro_rules! families {
    ($(
        $(#[$doc:meta])*
        $variant:ident $family:literal {
            $($key:literal {
                $($(#[$field_doc:meta])* $field:ident: $kind:tt ($operand:literal) = $default:expr,)+
            })+
        }
    )+) => {
        /// Family-specific parameters, defaults mirroring each campaign's
        /// stock constructor so a scenario file only states its overrides.
        #[derive(Debug, Clone, PartialEq)]
        pub enum FamilyParams {
            $($(#[$doc])* $variant {
                $($($(#[$field_doc])* $field: kind!(type $kind),)+)+
            },)+
            /// A free-form cluster scenario.
            Cluster(ClusterSpec),
        }

        impl FamilyParams {
            /// The family keyword.
            pub fn family(&self) -> &'static str {
                match self {
                    $(FamilyParams::$variant { .. } => $family,)+
                    FamilyParams::Cluster(_) => "cluster",
                }
            }

            fn defaults(family: &str) -> Option<FamilyParams> {
                Some(match family {
                    $($family => FamilyParams::$variant { $($($field: $default,)+)+ },)+
                    "cluster" => FamilyParams::Cluster(ClusterSpec::default()),
                    _ => return None,
                })
            }
        }

        const FAMILIES: &[&str] = &[$($family,)+ "cluster"];

        /// The `params` block of the family `fam`, opened on line `at`.
        fn parse_params(
            p: &mut Cursor<'_>,
            at: usize,
            fam: &mut FamilyParams,
        ) -> Result<(), ParseError> {
            let unterminated = |last| err(last, 1, "unterminated `params` section");
            match fam {
                $(FamilyParams::$variant { $($($field,)+)+ } => p.section(
                    concat!($family, " parameter"),
                    &[$($key),+],
                    unterminated,
                    |_, line| {
                        let mut operands = 0;
                        match line.key().text {
                            $($key => {$(
                                operands += 1;
                                *$field = kind!(parse $kind, line.operand(operands, $operand)?)?;
                            )+})+
                            _ => unreachable!("`section` passes only the listed keywords"),
                        }
                        line.expect_len(operands + 1)
                    },
                ),)+
                FamilyParams::Cluster(_) => Err(err(
                    at,
                    1,
                    "cluster scenarios declare `topology` / `faults` / `contracts`, not `params`",
                )),
            }
        }

        /// The canonical `params` block, or the cluster sections.
        fn format_params(out: &mut String, params: &FamilyParams) {
            match params {
                $(FamilyParams::$variant { $($($field,)+)+ } => {
                    out.push_str("  params\n");
                    $(
                        out.push_str(concat!("    ", $key));
                        $(let _ = write!(out, " {}", kind!(show $kind, *$field));)+
                        out.push('\n');
                    )+
                    out.push_str("  end\n");
                })+
                FamilyParams::Cluster(cluster) => format_cluster(out, cluster),
            }
        }
    };
}

families! {
    /// The six-node network-storm campaign.
    NetStorm "net_storm" {
        "cycles" {
            /// Communication cycles per trial.
            cycles: u32 ("cycle count") = 30,
        }
        "intensity" {
            /// Storm intensity in `[0, 1]`.
            intensity: probability ("intensity") = 0.3,
        }
        "node_faults" {
            /// Also inject one machine-level transient per trial.
            node_faults: on_off ("on/off") = true,
        }
    }
    /// The value-domain (sensor / command / actuator) campaign.
    ValueDomain "value_domain" {
        "cycles" {
            /// Communication cycles per trial.
            cycles: u32 ("cycle count") = 30,
        }
        "mode" {
            /// Combined storm mode instead of single-fault coverage mode.
            combined: ["mode": single_fault | combined_storm] ("mode") = false,
        }
        "net_intensity" {
            /// Network storm intensity (combined mode only).
            net_intensity: probability ("intensity") = 0.2,
        }
    }
    /// The correlated-blackout survival campaign.
    Blackout "blackout" {
        "warmup" {
            /// Healthy cycles before the blackout.
            warmup: u32 ("cycle count") = 6,
        }
        "recovery" {
            /// Cycles observed after the blackout.
            recovery: u32 ("cycle count") = 40,
        }
        "down" {
            /// Base reset duration per victim.
            down: u32 ("cycle count") = 2,
        }
        "stagger" {
            /// Maximum extra per-victim down time.
            stagger: u32 ("cycle count") = 2,
        }
        "min_reset" {
            /// Minimum victims per trial.
            min_reset: u32 ("victim count") = 2,
        }
        "include_cus" {
            /// Whether the central units are in the victim pool.
            include_cus: on_off ("on/off") = true,
        }
    }
    /// The diagnosis / recovery-escalation campaign.
    Recovery "recovery" {
        "cycles" {
            /// Communication cycles per trial (≥ 30).
            cycles: u32 ("cycle count") = 40,
        }
    }
    /// The weakly-hard miss-pattern storm campaign.
    WeaklyHard "weakly_hard" {
        "horizon_jobs" {
            /// Brake-controller jobs per trial (≤ 64).
            horizon_jobs: u32 ("job count") = 64,
        }
        "contract" {
            /// Tolerated misses per window (`m`).
            max_misses: u32 ("m") = 2,
            /// Window length in jobs (`k`).
            window: u32 ("k") = 8,
        }
        "interval" {
            /// Fault inter-arrival lower bound, µs (inclusive).
            interval_lo: u64 ("lower bound") = 40,
            /// Fault inter-arrival upper bound, µs (exclusive).
            interval_hi: u64 ("upper bound") = 160,
        }
        "policy" {
            /// Release to zero force on a miss instead of holding the last
            /// commanded force.
            zero_force: ["miss policy": hold_last | zero_force] ("policy") = false,
        }
    }
    /// The multicore core-death campaign.
    Multicore "multicore" {
        "cores" {
            /// Cores per node (≥ 2).
            cores: u32 ("core count") = 2,
        }
        "horizon" {
            /// Executive horizon in ticks (µs).
            horizon: u64 ("tick count") = 4_000,
        }
        "escalated_p" {
            /// Probability a death is escalated fail-silence.
            escalated_p: probability ("probability") = 0.25,
        }
    }
    /// The node-level SWIFI parameter-estimation campaign.
    Node "node" {
        "policy" {
            /// Light-weight NLFT policy instead of fail-silent.
            lightweight_nlft: ["node policy": fail_silent | lightweight_nlft] ("policy") = true,
        }
    }
}

/// The acceptance clause: what the campaign outcome must look like for
/// the scenario to pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AcceptSpec {
    /// Golden CRC-32 digest of the canonical outcome rendering; `None`
    /// means unpinned (print-only).
    pub pin: Option<u32>,
    /// Exact expected counts for named verdicts.
    pub verdicts: Vec<(String, u64)>,
    /// Verdicts or metrics that must be zero (e.g. silent failures).
    pub require_zero: Vec<String>,
    /// Ceilings on named metrics (e.g. braking-distance excess).
    pub max: Vec<(String, u64)>,
}

/// One parsed scenario: the typed AST the campaign compiler consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (the `scenario` header word).
    pub name: String,
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Master seed; every trial forks a labelled stream off it, so the
    /// outcome is bit-identical at any thread count.
    pub seed: u64,
    /// Family selection plus its parameters.
    pub params: FamilyParams,
    /// The acceptance clause.
    pub accept: AcceptSpec,
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

fn parse_on_off(t: &Token<'_>) -> Result<bool, ParseError> {
    keyword(t, "flag value", &[("on", true), ("off", false)])
}

fn parse_node(t: &Token<'_>) -> Result<NodeName, ParseError> {
    keyword(t, "node", &NodeName::ALL.map(|n| (n.keyword(), n)))
}

/// The `onset <cycle>` tail of a sensor or actuator line, from token `i`.
fn parse_onset(line: &Line<'_>, i: usize) -> Result<u32, ParseError> {
    keyword(line.operand(i, "`onset`")?, "keyword", &[("onset", ())])?;
    let onset = parse_u32(line.operand(i + 1, "onset cycle")?)?;
    line.expect_len(i + 2)?;
    Ok(onset)
}

/// Parses one scenario file into its typed AST.
///
/// Grammar (line-oriented, `#` comments, sections closed by `end`):
///
/// ```text
/// scenario <name>
///   family <net_storm|value_domain|blackout|recovery|weakly_hard|multicore|node|cluster>
///   trials <n>
///   seed <n|0x..>
///   params ... end          # family parameters (non-cluster)
///   topology ... end        # cluster only
///   faults ... end          # cluster only
///   contracts ... end       # cluster only
///   accept ... end
/// end
/// ```
///
/// # Errors
///
/// Returns the first [`ParseError`], located at the token at fault.
pub fn parse_scenario(source: &str) -> Result<ScenarioSpec, ParseError> {
    let tokens = tokenize(source);
    let mut p = tokens.cursor();
    let header = p
        .next_line()
        .ok_or_else(|| err(1, 1, "empty scenario source"))?;
    keyword(header.key(), "keyword", &[("scenario", ())])?;
    let name = header.operand(1, "scenario name")?.text.to_string();
    header.expect_len(2)?;

    let mut trials: Option<u64> = None;
    let mut seed: Option<u64> = None;
    let mut params: Option<FamilyParams> = None;
    let mut accept: Option<AcceptSpec> = None;
    p.section(
        "keyword",
        &[
            "family",
            "trials",
            "seed",
            "params",
            "topology",
            "faults",
            "contracts",
            "accept",
        ],
        |last| err(last, 1, "missing closing `end`"),
        |p, line| {
            let key = line.key();
            match key.text {
                "family" => {
                    let t = line.operand(1, "family name")?;
                    let fam = FamilyParams::defaults(t.text)
                        .ok_or_else(|| unknown(t, "family", FAMILIES))?;
                    line.expect_len(2)?;
                    if params.is_some() {
                        return Err(key.err("family declared twice"));
                    }
                    params = Some(fam);
                }
                "trials" => {
                    trials = Some(parse_u64(line.operand(1, "trial count")?)?);
                    line.expect_len(2)?;
                }
                "seed" => {
                    seed = Some(parse_u64(line.operand(1, "seed")?)?);
                    line.expect_len(2)?;
                }
                "accept" => {
                    line.expect_len(1)?;
                    if accept.is_some() {
                        return Err(key.err("accept declared twice"));
                    }
                    accept = Some(parse_accept(p)?);
                }
                block => {
                    line.expect_len(1)?;
                    let fam = params
                        .as_mut()
                        .ok_or_else(|| key.err(format!("`{block}` before `family` declaration")))?;
                    match (block, fam) {
                        ("params", fam) => parse_params(p, line.no, fam)?,
                        ("topology", FamilyParams::Cluster(cluster)) => parse_topology(p, cluster)?,
                        ("faults", FamilyParams::Cluster(cluster)) => parse_faults(p, cluster)?,
                        ("contracts", FamilyParams::Cluster(cluster)) => {
                            parse_contracts(p, cluster)?
                        }
                        _ => {
                            return Err(key.err(format!(
                                "`{block}` sections only apply to `family cluster` scenarios"
                            )))
                        }
                    }
                }
            }
            Ok(())
        },
    )?;
    if let Some(line) = p.next_line() {
        let t = line.key();
        return Err(t.err(format!("trailing content `{}` after scenario", t.text)));
    }
    let params = params.ok_or_else(|| err(header.no, 1, "missing `family`"))?;
    Ok(ScenarioSpec {
        name,
        trials: trials.ok_or_else(|| err(header.no, 1, "missing `trials`"))?,
        seed: seed.ok_or_else(|| err(header.no, 1, "missing `seed`"))?,
        params,
        accept: accept.unwrap_or_default(),
    })
}

fn parse_topology(p: &mut Cursor<'_>, cluster: &mut ClusterSpec) -> Result<(), ParseError> {
    p.section(
        "topology keyword",
        &["cycles", "pedal", "node", "startup", "supervise"],
        |last| err(last, 1, "unterminated `topology` section"),
        |_, line| match line.key().text {
            "cycles" => {
                cluster.cycles = parse_u32(line.operand(1, "cycle count")?)?;
                line.expect_len(2)
            }
            "pedal" => {
                let t = line.operand(1, "pedal profile")?;
                cluster.pedal = match t.text {
                    "constant" => {
                        let v = parse_u32(line.operand(2, "force")?)?;
                        line.expect_len(3)?;
                        PedalSpec::Constant(v)
                    }
                    "ramp" => {
                        let base = parse_u32(line.operand(2, "base")?)?;
                        let slope = parse_u32(line.operand(3, "slope")?)?;
                        let max = parse_u32(line.operand(4, "max")?)?;
                        line.expect_len(5)?;
                        PedalSpec::Ramp { base, slope, max }
                    }
                    _ => return Err(unknown(t, "pedal profile", &["constant", "ramp"])),
                };
                Ok(())
            }
            "node" => {
                let node = parse_node(line.operand(1, "node name")?)?;
                let kind = keyword(
                    line.operand(2, "node kind")?,
                    "node kind",
                    &[
                        NodeKind::SingleCore,
                        NodeKind::DualCoreLock,
                        NodeKind::DualCoreLeftRs,
                    ]
                    .map(|k| (k.keyword(), k)),
                )?;
                line.expect_len(3)?;
                cluster.nodes.push((node, kind));
                Ok(())
            }
            "startup" => {
                cluster.startup = parse_on_off(line.operand(1, "on/off")?)?;
                line.expect_len(2)
            }
            _ => {
                cluster.supervise = parse_on_off(line.operand(1, "on/off")?)?;
                line.expect_len(2)
            }
        },
    )
}

fn parse_faults(p: &mut Cursor<'_>, cluster: &mut ClusterSpec) -> Result<(), ParseError> {
    p.section(
        "fault keyword",
        &[
            "storm",
            "rates",
            "dynamic",
            "blackout",
            "transient",
            "stuck_at",
            "intermittent",
            "core_death",
            "sensor",
            "actuator",
            "silence",
        ],
        |last| err(last, 1, "unterminated `faults` section"),
        |_, line| {
            let fault = parse_fault(&line)?;
            cluster.faults.push(fault);
            Ok(())
        },
    )
}

/// One line of a `faults` block; its keyword is a fault keyword.
fn parse_fault(line: &Line<'_>) -> Result<FaultLine, ParseError> {
    let key = line.key();
    Ok(match key.text {
        "storm" => {
            let intensity = parse_probability(line.operand(1, "intensity")?)?;
            let mut from = 0u32;
            let mut until = u32::MAX;
            let mut i = 2;
            while let Some(t) = line.tokens.get(i) {
                match t.text {
                    "from" => from = parse_u32(line.operand(i + 1, "cycle")?)?,
                    "until" => until = parse_u32(line.operand(i + 1, "cycle")?)?,
                    _ => return Err(unknown(t, "storm option", &["from", "until"])),
                }
                i += 2;
            }
            FaultLine::Storm {
                intensity,
                from,
                until,
            }
        }
        "rates" => {
            const FIELDS: [&str; 6] = [
                "corruption",
                "omission",
                "crash",
                "babble",
                "masquerade",
                "clock_glitch",
            ];
            let node = parse_node(line.operand(1, "node name")?)?;
            let mut rates = [0.0f64; 6];
            let mut i = 2;
            while let Some(t) = line.tokens.get(i) {
                let Some(slot) = FIELDS.iter().position(|f| *f == t.text) else {
                    return Err(unknown(t, "rate field", &FIELDS));
                };
                rates[slot] = parse_probability(line.operand(i + 1, "rate")?)?;
                i += 2;
            }
            FaultLine::Rates {
                node,
                corruption: rates[0],
                omission: rates[1],
                crash: rates[2],
                babble: rates[3],
                masquerade: rates[4],
                clock_glitch: rates[5],
            }
        }
        "dynamic" => {
            let dup = parse_probability(line.operand(1, "dup rate")?)?;
            let reorder = parse_probability(line.operand(2, "reorder rate")?)?;
            line.expect_len(3)?;
            FaultLine::Dynamic { dup, reorder }
        }
        "blackout" => {
            let at = parse_u32(line.operand(1, "cycle")?)?;
            let down = parse_u32(line.operand(2, "down cycles")?)?;
            let stagger = parse_u32(line.operand(3, "stagger")?)?;
            let nodes = line.tokens[4..]
                .iter()
                .map(parse_node)
                .collect::<Result<Vec<_>, _>>()?;
            if nodes.is_empty() {
                return Err(key.err("blackout without victim nodes"));
            }
            FaultLine::Blackout {
                at,
                down,
                stagger,
                nodes,
            }
        }
        "transient" => {
            let node = parse_node(line.operand(1, "node name")?)?;
            let cycle = parse_u32(line.operand(2, "cycle")?)?;
            let copy = parse_u32(line.operand(3, "copy index")?)?;
            let at = parse_u64(line.operand(4, "machine cycle")?)?;
            line.expect_len(5)?;
            FaultLine::Transient {
                node,
                cycle,
                copy,
                at,
            }
        }
        "stuck_at" => {
            let node = parse_node(line.operand(1, "node name")?)?;
            let t = line.operand(2, "bit index")?;
            let bit = parse_u32(t)?;
            if bit >= 32 {
                return Err(t.err(format!("bit index {bit} outside 0–31")));
            }
            line.expect_len(3)?;
            FaultLine::StuckAtPc { node, bit }
        }
        "intermittent" => {
            let node = parse_node(line.operand(1, "node name")?)?;
            let recurrence = parse_probability(line.operand(2, "recurrence")?)?;
            let burst = parse_u32(line.operand(3, "burst length")?)?;
            line.expect_len(4)?;
            FaultLine::Intermittent {
                node,
                recurrence,
                burst,
            }
        }
        "core_death" => {
            let node = parse_node(line.operand(1, "node name")?)?;
            let cycle = parse_u32(line.operand(2, "cycle")?)?;
            let escalated = match line.tokens.get(3) {
                Some(t) => keyword(t, "core_death option", &[("escalated", true)])?,
                None => false,
            };
            line.expect_len(4)?;
            FaultLine::CoreDeath {
                node,
                cycle,
                escalated,
            }
        }
        "sensor" => {
            let channel = parse_u32(line.operand(1, "channel index")?)?;
            let t = line.operand(2, "sensor fault kind")?;
            let (fault, onset_idx) = match t.text {
                "stuck_at" => (
                    SensorFaultSpec::StuckAt(parse_u32(line.operand(3, "value")?)?),
                    4,
                ),
                "offset" => (
                    SensorFaultSpec::Offset(parse_i64(line.operand(3, "offset")?)?),
                    4,
                ),
                "drift" => (
                    SensorFaultSpec::Drift(parse_i64(line.operand(3, "per-cycle drift")?)?),
                    4,
                ),
                "noise" => (
                    SensorFaultSpec::Noise {
                        amplitude: parse_u32(line.operand(3, "amplitude")?)?,
                        cycles: parse_u32(line.operand(4, "burst cycles")?)?,
                    },
                    5,
                ),
                _ => {
                    return Err(unknown(
                        t,
                        "sensor fault",
                        &["stuck_at", "offset", "drift", "noise"],
                    ))
                }
            };
            FaultLine::Sensor {
                channel,
                fault,
                onset: parse_onset(line, onset_idx)?,
            }
        }
        "actuator" => {
            let wheel = parse_u32(line.operand(1, "wheel index")?)?;
            let t = line.operand(2, "actuator fault kind")?;
            let (fault, onset_idx) = match t.text {
                "stuck" => (ActuatorFaultSpec::Stuck, 3),
                "runaway" => (
                    ActuatorFaultSpec::Runaway {
                        step: parse_u32(line.operand(3, "step")?)?,
                    },
                    4,
                ),
                "offset" => (
                    ActuatorFaultSpec::Offset(parse_i64(line.operand(3, "offset")?)?),
                    4,
                ),
                _ => {
                    return Err(unknown(
                        t,
                        "actuator fault",
                        &["stuck", "runaway", "offset"],
                    ))
                }
            };
            FaultLine::Actuator {
                wheel,
                fault,
                onset: parse_onset(line, onset_idx)?,
            }
        }
        _ => {
            let node = parse_node(line.operand(1, "node name")?)?;
            let cycles = parse_u32(line.operand(2, "cycle count")?)?;
            line.expect_len(3)?;
            FaultLine::Silence { node, cycles }
        }
    })
}

fn parse_contracts(p: &mut Cursor<'_>, cluster: &mut ClusterSpec) -> Result<(), ParseError> {
    let mut contracts = cluster
        .contracts
        .unwrap_or([(1, 8), (1, 8), (2, 8), (2, 8)]);
    p.section(
        "contracts keyword",
        &["wheel"],
        |last| err(last, 1, "unterminated `contracts` section"),
        |_, line| {
            let wheel = keyword(
                line.operand(1, "wheel name")?,
                "wheel",
                &[("fl", 0), ("fr", 1), ("rl", 2), ("rr", 3)],
            )?;
            let m = parse_u32(line.operand(2, "m")?)?;
            let k = parse_u32(line.operand(3, "k")?)?;
            if k == 0 || m >= k {
                return Err(
                    line.tokens[2].err(format!("({m},{k}) is not a valid weakly-hard contract"))
                );
            }
            line.expect_len(4)?;
            contracts[wheel] = (m, k);
            Ok(())
        },
    )?;
    cluster.contracts = Some(contracts);
    Ok(())
}

fn parse_accept(p: &mut Cursor<'_>) -> Result<AcceptSpec, ParseError> {
    let mut accept = AcceptSpec::default();
    p.section(
        "accept keyword",
        &["pin", "verdict", "require_zero", "max"],
        |last| err(last, 1, "unterminated `accept` section"),
        |_, line| {
            match line.key().text {
                "pin" => {
                    let t = line.operand(1, "digest")?;
                    let v = u32::try_from(parse_u64(t)?)
                        .map_err(|_| t.err("digest does not fit in 32 bits"))?;
                    line.expect_len(2)?;
                    accept.pin = Some(v);
                }
                "verdict" => {
                    let name = line.operand(1, "verdict name")?.text.to_string();
                    let count = parse_u64(line.operand(2, "count")?)?;
                    line.expect_len(3)?;
                    accept.verdicts.push((name, count));
                }
                "require_zero" => {
                    let name = line.operand(1, "verdict or metric name")?;
                    line.expect_len(2)?;
                    accept.require_zero.push(name.text.to_string());
                }
                _ => {
                    let name = line.operand(1, "metric name")?.text.to_string();
                    let v = parse_u64(line.operand(2, "ceiling")?)?;
                    line.expect_len(3)?;
                    accept.max.push((name, v));
                }
            }
            Ok(())
        },
    )?;
    Ok(accept)
}

// ---------------------------------------------------------------------
// Formatter
// ---------------------------------------------------------------------

/// Renders the canonical form of a scenario. `format → parse` yields an
/// AST equal to the input — the round-trip property the zoo test pins.
pub fn format_scenario(spec: &ScenarioSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scenario {}", spec.name);
    let _ = writeln!(out, "  family {}", spec.params.family());
    let _ = writeln!(out, "  trials {}", spec.trials);
    let _ = writeln!(out, "  seed 0x{:x}", spec.seed);
    format_params(&mut out, &spec.params);
    format_accept(&mut out, &spec.accept);
    let _ = writeln!(out, "end");
    out
}

fn on_off(v: bool) -> &'static str {
    if v {
        "on"
    } else {
        "off"
    }
}

fn format_cluster(out: &mut String, cluster: &ClusterSpec) {
    let _ = writeln!(out, "  topology");
    let _ = writeln!(out, "    cycles {}", cluster.cycles);
    match cluster.pedal {
        PedalSpec::Constant(v) => {
            let _ = writeln!(out, "    pedal constant {v}");
        }
        PedalSpec::Ramp { base, slope, max } => {
            let _ = writeln!(out, "    pedal ramp {base} {slope} {max}");
        }
    }
    for &(node, kind) in &cluster.nodes {
        let _ = writeln!(out, "    node {} {}", node.keyword(), kind.keyword());
    }
    let _ = writeln!(out, "    startup {}", on_off(cluster.startup));
    let _ = writeln!(out, "    supervise {}", on_off(cluster.supervise));
    let _ = writeln!(out, "  end");
    if !cluster.faults.is_empty() {
        let _ = writeln!(out, "  faults");
        for fault in &cluster.faults {
            format_fault(out, fault);
        }
        let _ = writeln!(out, "  end");
    }
    if let Some(contracts) = cluster.contracts {
        let _ = writeln!(out, "  contracts");
        for (idx, name) in ["fl", "fr", "rl", "rr"].iter().enumerate() {
            let (m, k) = contracts[idx];
            let _ = writeln!(out, "    wheel {name} {m} {k}");
        }
        let _ = writeln!(out, "  end");
    }
}

fn format_fault(out: &mut String, fault: &FaultLine) {
    match fault {
        FaultLine::Storm {
            intensity,
            from,
            until,
        } => {
            let _ = write!(out, "    storm {intensity}");
            if *from != 0 {
                let _ = write!(out, " from {from}");
            }
            if *until != u32::MAX {
                let _ = write!(out, " until {until}");
            }
            let _ = writeln!(out);
        }
        FaultLine::Rates {
            node,
            corruption,
            omission,
            crash,
            babble,
            masquerade,
            clock_glitch,
        } => {
            let _ = write!(out, "    rates {}", node.keyword());
            for (name, v) in [
                ("corruption", corruption),
                ("omission", omission),
                ("crash", crash),
                ("babble", babble),
                ("masquerade", masquerade),
                ("clock_glitch", clock_glitch),
            ] {
                if *v != 0.0 {
                    let _ = write!(out, " {name} {v}");
                }
            }
            let _ = writeln!(out);
        }
        FaultLine::Dynamic { dup, reorder } => {
            let _ = writeln!(out, "    dynamic {dup} {reorder}");
        }
        FaultLine::Blackout {
            at,
            down,
            stagger,
            nodes,
        } => {
            let _ = write!(out, "    blackout {at} {down} {stagger}");
            for n in nodes {
                let _ = write!(out, " {}", n.keyword());
            }
            let _ = writeln!(out);
        }
        FaultLine::Transient {
            node,
            cycle,
            copy,
            at,
        } => {
            let _ = writeln!(out, "    transient {} {cycle} {copy} {at}", node.keyword());
        }
        FaultLine::StuckAtPc { node, bit } => {
            let _ = writeln!(out, "    stuck_at {} {bit}", node.keyword());
        }
        FaultLine::Intermittent {
            node,
            recurrence,
            burst,
        } => {
            let _ = writeln!(
                out,
                "    intermittent {} {recurrence} {burst}",
                node.keyword()
            );
        }
        FaultLine::CoreDeath {
            node,
            cycle,
            escalated,
        } => {
            let _ = write!(out, "    core_death {} {cycle}", node.keyword());
            if *escalated {
                let _ = write!(out, " escalated");
            }
            let _ = writeln!(out);
        }
        FaultLine::Sensor {
            channel,
            fault,
            onset,
        } => {
            let _ = write!(out, "    sensor {channel}");
            match fault {
                SensorFaultSpec::StuckAt(v) => {
                    let _ = write!(out, " stuck_at {v}");
                }
                SensorFaultSpec::Offset(v) => {
                    let _ = write!(out, " offset {v}");
                }
                SensorFaultSpec::Drift(v) => {
                    let _ = write!(out, " drift {v}");
                }
                SensorFaultSpec::Noise { amplitude, cycles } => {
                    let _ = write!(out, " noise {amplitude} {cycles}");
                }
            }
            let _ = writeln!(out, " onset {onset}");
        }
        FaultLine::Actuator {
            wheel,
            fault,
            onset,
        } => {
            let _ = write!(out, "    actuator {wheel}");
            match fault {
                ActuatorFaultSpec::Stuck => {
                    let _ = write!(out, " stuck");
                }
                ActuatorFaultSpec::Runaway { step } => {
                    let _ = write!(out, " runaway {step}");
                }
                ActuatorFaultSpec::Offset(v) => {
                    let _ = write!(out, " offset {v}");
                }
            }
            let _ = writeln!(out, " onset {onset}");
        }
        FaultLine::Silence { node, cycles } => {
            let _ = writeln!(out, "    silence {} {cycles}", node.keyword());
        }
    }
}

fn format_accept(out: &mut String, accept: &AcceptSpec) {
    let empty = accept.pin.is_none()
        && accept.verdicts.is_empty()
        && accept.require_zero.is_empty()
        && accept.max.is_empty();
    if empty {
        return;
    }
    let _ = writeln!(out, "  accept");
    for (name, count) in &accept.verdicts {
        let _ = writeln!(out, "    verdict {name} {count}");
    }
    for name in &accept.require_zero {
        let _ = writeln!(out, "    require_zero {name}");
    }
    for (name, v) in &accept.max {
        let _ = writeln!(out, "    max {name} {v}");
    }
    if let Some(pin) = accept.pin {
        let _ = writeln!(out, "    pin 0x{pin:08x}");
    }
    let _ = writeln!(out, "  end");
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = "\
# a comment
scenario smoke
  family net_storm
  trials 10
  seed 0x5708
  params
    cycles 20
    intensity 0.3
    node_faults on
  end
  accept
    verdict service_lost 1
    require_zero split_membership
    max guardian_blocks 100
    pin 0xdeadbeef
  end
end
";

    #[test]
    fn parses_net_storm_scenario() {
        let spec = parse_scenario(SMOKE).unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.trials, 10);
        assert_eq!(spec.seed, 0x5708);
        assert_eq!(
            spec.params,
            FamilyParams::NetStorm {
                cycles: 20,
                intensity: 0.3,
                node_faults: true,
            }
        );
        assert_eq!(spec.accept.pin, Some(0xdead_beef));
        assert_eq!(spec.accept.verdicts, vec![("service_lost".into(), 1)]);
        assert_eq!(
            spec.accept.require_zero,
            vec!["split_membership".to_string()]
        );
        assert_eq!(spec.accept.max, vec![("guardian_blocks".into(), 100)]);
    }

    #[test]
    fn unknown_keyword_gets_line_col_and_hint() {
        let e = parse_scenario(
            "scenario x\nfamily net_storm\ntrials 1\nseed 1\nparams\n  cycels 20\nend\nend\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 6);
        assert_eq!(e.col, 3);
        assert!(e.message.contains("did you mean `cycles`?"), "{e}");
    }

    #[test]
    fn unknown_family_gets_hint() {
        let e =
            parse_scenario("scenario x\nfamily net_strom\ntrials 1\nseed 1\nend\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert_eq!(e.col, 8);
        assert!(e.message.contains("did you mean `net_storm`?"), "{e}");
    }

    #[test]
    fn out_of_range_probability_rejected_at_parse_time() {
        let e = parse_scenario(
            "scenario x\nfamily net_storm\ntrials 1\nseed 1\nparams\nintensity 1.5\nend\nend\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.message.contains("not a probability"), "{e}");
        let e = parse_scenario(
            "scenario x\nfamily net_storm\ntrials 1\nseed 1\nparams\nintensity NaN\nend\nend\n",
        )
        .unwrap_err();
        assert!(e.message.contains("not a probability"), "{e}");
    }

    #[test]
    fn cluster_sections_rejected_for_campaign_families() {
        let e =
            parse_scenario("scenario x\nfamily recovery\ntrials 1\nseed 1\ntopology\nend\nend\n")
                .unwrap_err();
        assert!(e.message.contains("family cluster"), "{e}");
    }

    #[test]
    fn cluster_round_trips_through_formatter() {
        let source = "\
scenario kitchen-sink
  family cluster
  trials 6
  seed 0xabc
  topology
    cycles 32
    pedal ramp 400 60 3500
    node wheel_fl dual_core_left_rs
    node wheel_fr dual_core_lock
    startup on
    supervise on
  end
  faults
    storm 0.45 from 5 until 14
    rates cu_a masquerade 0.2 babble 0.1
    dynamic 0.05 0.1
    blackout 8 3 1 wheel_fl wheel_fr
    transient wheel_rl 4 1 20
    stuck_at wheel_rr 20
    intermittent wheel_rl 0.9 12
    core_death wheel_fl 10 escalated
    sensor 0 drift 3 onset 5
    sensor 1 noise 300 6 onset 4
    actuator 2 runaway 60 onset 6
    silence cu_b 4
  end
  contracts
    wheel fl 1 8
    wheel rr 3 8
  end
  accept
    require_zero undetected
    pin 0x00000001
  end
end
";
        let spec = parse_scenario(source).unwrap();
        let formatted = format_scenario(&spec);
        let reparsed = parse_scenario(&formatted).unwrap();
        assert_eq!(spec, reparsed, "format → parse must round-trip the AST");
        let FamilyParams::Cluster(cluster) = &spec.params else {
            panic!("expected cluster");
        };
        assert_eq!(cluster.faults.len(), 12);
        assert_eq!(
            cluster.contracts,
            Some([(1, 8), (1, 8), (2, 8), (3, 8)]),
            "unlisted wheels keep the default contracts"
        );
    }

    #[test]
    fn every_family_round_trips() {
        for family in FAMILIES {
            let source = format!("scenario f\nfamily {family}\ntrials 3\nseed 0x9\nend\n");
            let spec = parse_scenario(&source).unwrap();
            let reparsed = parse_scenario(&format_scenario(&spec)).unwrap();
            assert_eq!(spec, reparsed, "{family}");
        }
    }

    #[test]
    fn missing_end_reported() {
        let e = parse_scenario("scenario x\nfamily recovery\ntrials 1\nseed 1\n").unwrap_err();
        assert!(e.message.contains("missing closing `end`"), "{e}");
    }

    #[test]
    fn trailing_content_rejected() {
        let e = parse_scenario("scenario x\nfamily recovery\ntrials 1\nseed 1\nend\nscenario y\n")
            .unwrap_err();
        assert_eq!(e.line, 6);
        assert!(e.message.contains("trailing content"), "{e}");
    }

    #[test]
    fn vacuous_contract_rejected() {
        let e = parse_scenario(
            "scenario x\nfamily cluster\ntrials 1\nseed 1\ncontracts\nwheel fl 8 8\nend\nend\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 6);
        assert!(
            e.message.contains("not a valid weakly-hard contract"),
            "{e}"
        );
    }

    #[test]
    fn display_formats_line_and_col() {
        let e = err(4, 7, "boom");
        assert_eq!(e.to_string(), "line 4, col 7: boom");
    }
}
