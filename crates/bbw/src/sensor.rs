//! Triplicated pedal sensing with value-domain fault masking.
//!
//! The paper's Table 1 lists data-integrity and end-to-end checks as
//! first-class error-detection mechanisms, but a brake pedal is an
//! *input*: no amount of downstream TEM helps if the value entering the
//! system is already wrong. This module models the classic remedy —
//! sensor triplication with a median voter — hardened by per-channel
//! plausibility checks:
//!
//! * **range** — a reading outside `[0, PEDAL_MAX]` is clamped at the
//!   sensor boundary and flagged (the clamp is never silent);
//! * **rate** — a pedal is a human foot on a spring: a jump larger than
//!   [`PedalVoterConfig::max_rate`] counts per cycle is implausible;
//! * **deviation** — a channel further than
//!   [`PedalVoterConfig::max_deviation`] from the channel median is
//!   implausible.
//!
//! A channel accumulating `window_misses` implausible cycles within its
//! last `window_cycles` cycles (a per-channel
//! [`nlft_sim::weakly_hard::WeaklyHard`] m-in-k monitor, the same one the
//! membership hysteresis runs) is **demoted**: permanently removed from
//! the vote. Short noise bursts below the m-in-k threshold are tolerated
//! without demotion — bounded sensor noise must not cost a healthy
//! channel its seat.
//!
//! Fault models ([`SensorFault`]) are deterministic: stuck-at, offset and
//! drift evolve purely from the onset cycle; noise bursts draw from a
//! dedicated [`RngStream`] fork so experiments stay bit-reproducible.

use nlft_sim::rng::RngStream;
use nlft_sim::weakly_hard::WeaklyHard;

/// Full-scale pedal reading (12-bit ADC).
pub const PEDAL_MAX: u32 = 4095;

/// A value-domain fault attached to one pedal channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SensorFault {
    /// The channel reports a constant value regardless of the pedal.
    StuckAt(u32),
    /// The channel reports the truth plus a constant offset (counts).
    Offset(i64),
    /// The channel's error grows by `per_cycle` counts every cycle after
    /// onset — a drifting bridge or reference.
    Drift {
        /// Error increment per cycle (may be negative).
        per_cycle: i64,
    },
    /// For `cycles` cycles after onset the reading jitters uniformly in
    /// `truth ± amplitude`; afterwards the channel is healthy again.
    NoiseBurst {
        /// Peak deviation in counts.
        amplitude: u32,
        /// Burst length in cycles.
        cycles: u32,
    },
}

/// One pedal channel's reading after the boundary clamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SensorReading {
    /// Clamped value in `[0, PEDAL_MAX]`.
    pub value: u32,
    /// Whether the raw value fell outside the range and was clamped —
    /// the clamp is explicit, never silent.
    pub clamped: bool,
}

/// One sensor channel: optional fault, onset cycle, and a dedicated
/// stream for its noise draws.
#[derive(Debug, Clone)]
struct PedalChannel {
    fault: Option<(SensorFault, u32)>,
    rng: RngStream,
    /// Last reading, for the rate-plausibility check.
    last: Option<u32>,
    /// Weakly-hard m-in-k window over implausible cycles.
    window: WeaklyHard,
    /// Implausible cycles observed in total.
    implausible: u32,
    /// Demoted channels never return to the vote.
    demoted: bool,
}

impl PedalChannel {
    fn new(rng: RngStream, window: WeaklyHard) -> Self {
        PedalChannel {
            fault: None,
            rng,
            last: None,
            window,
            implausible: 0,
            demoted: false,
        }
    }

    /// The faulty raw value before the boundary clamp, as a signed wide
    /// integer so offsets and drifts can run off both ends of the range.
    fn raw(&mut self, cycle: u32, truth: u32) -> i64 {
        let t = i64::from(truth);
        let Some((fault, onset)) = self.fault else {
            return t;
        };
        if cycle < onset {
            return t;
        }
        match fault {
            SensorFault::StuckAt(v) => i64::from(v),
            SensorFault::Offset(o) => t + o,
            SensorFault::Drift { per_cycle } => t + per_cycle * i64::from(cycle - onset + 1),
            SensorFault::NoiseBurst { amplitude, cycles } => {
                if cycle - onset < cycles {
                    let span = 2 * u64::from(amplitude) + 1;
                    t + self.rng.uniform_range(0, span) as i64 - i64::from(amplitude)
                } else {
                    t
                }
            }
        }
    }

    /// Reads the channel: fault model, then the explicit boundary clamp.
    fn read(&mut self, cycle: u32, truth: u32) -> SensorReading {
        let raw = self.raw(cycle, truth);
        let clamped = raw < 0 || raw > i64::from(PEDAL_MAX);
        SensorReading {
            value: raw.clamp(0, i64::from(PEDAL_MAX)) as u32,
            clamped,
        }
    }
}

/// Plausibility and demotion thresholds of the pedal voter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PedalVoterConfig {
    /// Largest plausible change per cycle (counts). The pedal is a human
    /// foot: full travel takes several communication cycles.
    pub max_rate: u32,
    /// Largest plausible deviation from the channel median (counts).
    pub max_deviation: u32,
    /// Implausible cycles within the window that demote a channel (`m`).
    pub window_misses: u32,
    /// Window length in cycles (`k`), at most 64.
    pub window_cycles: u32,
}

impl Default for PedalVoterConfig {
    /// `m = 4` implausible cycles in a `k = 16`-cycle window demote; rate
    /// bound 512 counts/cycle (full travel in 8 cycles), deviation bound
    /// 256 counts.
    fn default() -> Self {
        PedalVoterConfig {
            max_rate: 512,
            max_deviation: 256,
            window_misses: 4,
            window_cycles: 16,
        }
    }
}

/// The voter's decision for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PedalSample {
    /// The masked pedal value fed to the control application.
    pub voted: u32,
    /// Per-channel clamped readings this cycle.
    pub readings: [u32; 3],
    /// Which channels were flagged implausible this cycle.
    pub implausible: [bool; 3],
    /// Which channels are (still) in the vote after this cycle.
    pub active: [bool; 3],
    /// Whether any channel's raw value was clamped at the boundary.
    pub clamped: bool,
    /// Channel demoted in this cycle, if any.
    pub demoted_now: Option<usize>,
}

/// Per-run statistics of the sensing subsystem.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PedalStats {
    /// Implausible cycles per channel.
    pub implausible: [u32; 3],
    /// Demotions in cycle order: `(cycle, channel)`.
    pub demotions: Vec<(u32, usize)>,
    /// Cycles in which at least one raw reading was clamped.
    pub clamped_cycles: u32,
    /// Largest `|voted − truth|` seen in any cycle.
    pub max_voted_error: u32,
    /// Cycles in which `|voted − truth|` exceeded the deviation bound
    /// while *no* channel was flagged or demoted — a silent value
    /// failure of the sensing subsystem. Must be zero under any single
    /// channel fault.
    pub undetected_error_cycles: u32,
}

/// Triplicated pedal sensor with median vote, plausibility checks and
/// weakly-hard channel demotion.
///
/// # Examples
///
/// ```
/// use nlft_bbw::sensor::{PedalSensorArray, PedalVoterConfig, SensorFault};
/// use nlft_sim::rng::RngStream;
///
/// let mut array = PedalSensorArray::new(
///     PedalVoterConfig::default(),
///     RngStream::new(7).fork("pedal"),
/// );
/// // Channel 1 sticks at zero from cycle 0; the median masks it.
/// array.attach_fault(1, SensorFault::StuckAt(0), 0);
/// for cycle in 0..20 {
///     let s = array.sample(cycle, 1800);
///     assert_eq!(s.voted, 1800, "two healthy channels outvote the stuck one");
/// }
/// // The persistently implausible channel was demoted on the way.
/// assert!(!array.stats().demotions.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct PedalSensorArray {
    channels: [PedalChannel; 3],
    config: PedalVoterConfig,
    stats: PedalStats,
    /// Last voted value, the fallback when every channel is demoted.
    last_voted: u32,
}

impl PedalSensorArray {
    /// Builds a healthy triplex. `rng` should be a dedicated fork of the
    /// experiment's master stream; each channel forks its own child so
    /// attaching a fault to one channel never perturbs another's noise.
    ///
    /// # Panics
    ///
    /// Panics if the config's window is invalid (see
    /// [`PedalVoterConfig`]).
    pub fn new(config: PedalVoterConfig, rng: RngStream) -> Self {
        assert!(config.window_misses > 0, "window_misses must be positive");
        assert!(
            config.window_cycles <= 64,
            "window_cycles must be at most 64"
        );
        assert!(
            config.window_misses <= config.window_cycles,
            "window_misses must be at most window_cycles"
        );
        let channels = std::array::from_fn(|i| {
            PedalChannel::new(
                rng.fork_indexed("pedal-channel", i as u64),
                WeaklyHard::new(config.window_misses, config.window_cycles),
            )
        });
        PedalSensorArray {
            channels,
            config,
            stats: PedalStats::default(),
            last_voted: 0,
        }
    }

    /// Attaches a fault to one channel from `onset` cycle on. A second
    /// call replaces the first.
    ///
    /// # Panics
    ///
    /// Panics if `channel >= 3`.
    pub fn attach_fault(&mut self, channel: usize, fault: SensorFault, onset: u32) {
        self.channels[channel].fault = Some((fault, onset));
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &PedalStats {
        &self.stats
    }

    /// Channels still in the vote.
    pub(crate) fn active_channels(&self) -> usize {
        self.channels.iter().filter(|c| !c.demoted).count()
    }

    /// Reads all three channels, votes, and updates plausibility state.
    /// `truth` is the physical pedal position; the array only uses it
    /// through the (possibly faulty) channels, but records
    /// `|voted − truth|` so campaigns can score silent value failures.
    pub fn sample(&mut self, cycle: u32, truth: u32) -> PedalSample {
        let mut readings = [0u32; 3];
        let mut clamped = false;
        for (i, ch) in self.channels.iter_mut().enumerate() {
            let r = ch.read(cycle, truth);
            readings[i] = r.value;
            clamped |= r.clamped;
        }
        if clamped {
            self.stats.clamped_cycles += 1;
        }

        // Median over ALL channels (demoted ones excluded below): the
        // median of the active set is the vote; plausibility is judged
        // against it.
        let active_before: Vec<usize> = (0..3).filter(|&i| !self.channels[i].demoted).collect();
        let voted = match active_before.len() {
            0 => self.last_voted,
            1 => readings[active_before[0]],
            2 => {
                // Duplex sensing: the midpoint — neither survivor can
                // pull the vote further than half its own error.
                let a = readings[active_before[0]];
                let b = readings[active_before[1]];
                u32::midpoint(a, b)
            }
            _ => {
                let mut sorted = readings;
                sorted.sort_unstable();
                sorted[1]
            }
        };

        // Plausibility per channel.
        let mut implausible = [false; 3];
        let mut demoted_now = None;
        for (i, ch) in self.channels.iter_mut().enumerate() {
            if ch.demoted {
                continue;
            }
            let r = readings[i];
            let rate_bad = ch
                .last
                .is_some_and(|prev| r.abs_diff(prev) > self.config.max_rate);
            let dev_bad = r.abs_diff(voted) > self.config.max_deviation;
            // A clamped raw value is a range violation even though the
            // clamp pulled it back in range.
            let range_bad = {
                let raw = ch.raw(cycle, truth);
                raw < 0 || raw > i64::from(PEDAL_MAX)
            };
            let bad = rate_bad || dev_bad || range_bad;
            implausible[i] = bad;
            if bad {
                ch.implausible += 1;
                self.stats.implausible[i] += 1;
            }
            if ch.window.record(bad).violated {
                ch.demoted = true;
                demoted_now = Some(i);
                self.stats.demotions.push((cycle, i));
            }
            ch.last = Some(r);
        }

        // Undetected-error bookkeeping: a voted value far from the truth
        // with no detection active this cycle is a silent value failure.
        let err = voted.abs_diff(truth);
        self.stats.max_voted_error = self.stats.max_voted_error.max(err);
        let any_flag = implausible.iter().any(|&b| b)
            || demoted_now.is_some()
            || clamped
            || self.active_channels() < 3;
        if err > self.config.max_deviation && !any_flag {
            self.stats.undetected_error_cycles += 1;
        }

        self.last_voted = voted;
        let active = std::array::from_fn(|i| !self.channels[i].demoted);
        PedalSample {
            voted,
            readings,
            implausible,
            active,
            clamped,
            demoted_now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> PedalSensorArray {
        PedalSensorArray::new(
            PedalVoterConfig::default(),
            RngStream::new(0x5E50).fork("t"),
        )
    }

    #[test]
    fn healthy_triplex_votes_the_truth() {
        let mut a = array();
        for cycle in 0..30 {
            let truth = 100 * cycle;
            let s = a.sample(cycle, truth);
            assert_eq!(s.voted, truth);
            assert_eq!(s.implausible, [false; 3]);
            assert_eq!(s.active, [true; 3]);
        }
        assert_eq!(a.stats().max_voted_error, 0);
        assert_eq!(a.stats().undetected_error_cycles, 0);
    }

    #[test]
    fn stuck_channel_is_masked_then_demoted() {
        let mut a = array();
        a.attach_fault(2, SensorFault::StuckAt(3500), 5);
        let mut demoted_at = None;
        for cycle in 0..30 {
            let s = a.sample(cycle, 800);
            assert_eq!(s.voted, 800, "median masks the stuck channel");
            if let Some(ch) = s.demoted_now {
                assert_eq!(ch, 2);
                demoted_at = Some(cycle);
            }
        }
        // Demotion after exactly m = 4 implausible cycles (onset 5 → 8).
        assert_eq!(demoted_at, Some(8));
        assert_eq!(a.active_channels(), 2);
        assert_eq!(a.stats().undetected_error_cycles, 0);
    }

    #[test]
    fn small_offset_is_masked_without_demotion() {
        let mut a = array();
        a.attach_fault(0, SensorFault::Offset(100), 0);
        for cycle in 0..40 {
            let s = a.sample(cycle, 2000);
            assert_eq!(s.voted, 2000, "median of (2100, 2000, 2000)");
        }
        // 100 < max_deviation: plausible, never demoted.
        assert_eq!(a.active_channels(), 3);
        assert_eq!(a.stats().implausible, [0; 3]);
    }

    #[test]
    fn drift_is_caught_once_it_crosses_the_deviation_bound() {
        let mut a = array();
        a.attach_fault(1, SensorFault::Drift { per_cycle: 40 }, 0);
        let mut flagged = false;
        for cycle in 0..40 {
            let s = a.sample(cycle, 1500);
            assert_eq!(s.voted, 1500, "median holds while the channel drifts");
            flagged |= s.implausible[1];
        }
        assert!(flagged, "drift must eventually be implausible");
        assert_eq!(a.active_channels(), 2, "and the drifter demoted");
        assert_eq!(a.stats().undetected_error_cycles, 0);
    }

    #[test]
    fn short_noise_burst_tolerated_without_demotion() {
        let mut a = array();
        // A 2-cycle burst costs at most 3 implausible cycles (both burst
        // cycles plus the rate flag on the jump back to nominal), which
        // stays under m = 4: weakly-hard tolerance, channel stays.
        a.attach_fault(
            0,
            SensorFault::NoiseBurst {
                amplitude: 2000,
                cycles: 2,
            },
            10,
        );
        for cycle in 0..40 {
            let s = a.sample(cycle, 1000);
            assert_eq!(s.voted, 1000, "median rides out the burst");
        }
        assert_eq!(a.active_channels(), 3, "short burst must not demote");
        assert!(a.stats().implausible[0] <= 3);
    }

    #[test]
    fn long_noise_burst_demotes() {
        let mut a = array();
        a.attach_fault(
            0,
            SensorFault::NoiseBurst {
                amplitude: 3000,
                cycles: 20,
            },
            5,
        );
        for cycle in 0..40 {
            a.sample(cycle, 1000);
        }
        assert_eq!(a.active_channels(), 2, "sustained noise must demote");
    }

    #[test]
    fn out_of_range_is_clamped_and_flagged_never_silent() {
        let mut a = array();
        a.attach_fault(1, SensorFault::Offset(10_000), 0);
        let s = a.sample(0, 3000);
        assert_eq!(s.readings[1], PEDAL_MAX, "clamped at the boundary");
        assert!(s.clamped, "the clamp is flagged");
        assert!(s.implausible[1], "range violation is implausible");
        assert_eq!(s.voted, 3000);
    }

    #[test]
    fn duplex_then_simplex_after_two_demotions() {
        let mut a = array();
        a.attach_fault(0, SensorFault::StuckAt(0), 0);
        a.attach_fault(1, SensorFault::StuckAt(PEDAL_MAX), 0);
        for cycle in 0..30 {
            a.sample(cycle, 2000);
        }
        assert_eq!(a.active_channels(), 1, "both stuck channels demoted");
        // The survivor carries the vote alone.
        let s = a.sample(30, 2000);
        assert_eq!(s.voted, 2000);
    }

    #[test]
    fn deterministic_for_a_seed() {
        let run = || {
            let mut a = PedalSensorArray::new(
                PedalVoterConfig::default(),
                RngStream::new(0xABCD).fork("pedal"),
            );
            a.attach_fault(
                2,
                SensorFault::NoiseBurst {
                    amplitude: 1000,
                    cycles: 30,
                },
                0,
            );
            (0..40).map(|c| a.sample(c, 1500).voted).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
