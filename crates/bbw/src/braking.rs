//! Braking-distance degradation scoring for deadline-miss patterns.
//!
//! A weakly-hard contract talks about misses; the driver cares about
//! metres. This module closes that gap with a deterministic, integer
//! longitudinal braking model: the vehicle starts at an initial speed,
//! the brake controller job runs once per control cycle demanding a
//! ramping force, and every cycle the applied force sheds speed while
//! the remaining speed accrues stopping distance. A *missed* control
//! job cannot update the force command, so the wheel either holds the
//! last commanded force ([`MissPolicy::HoldLast`] — the BBW cluster's
//! hold-last-safe window) or releases to zero ([`MissPolicy::ZeroForce`]
//! — a fail-silent omission with no hold window).
//!
//! Scoring a miss pattern means braking twice — once with the pattern
//! (repeated cyclically until the vehicle stops), once with the all-hit
//! clean twin, which a campaign brakes once for all its patterns — and
//! reporting the **excess stopping distance**. That is
//! the functional number the miss-pattern storm campaign attaches to
//! every pattern it finds: not "2 misses in 8" but "0.4% longer
//! stopping distance".
//!
//! Everything is integer arithmetic on `u64`, so scores are exactly
//! reproducible across platforms and thread counts.

/// What a wheel does on a cycle whose control job missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissPolicy {
    /// Keep braking on the last commanded force (hold-last-safe).
    HoldLast,
    /// Release to zero force until the next successful job.
    ZeroForce,
}

/// The deterministic longitudinal braking model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BrakingModel {
    /// Initial speed in distance units per cycle.
    pub initial_speed: u32,
    /// Speed shed per cycle is `force / force_gain`.
    pub force_gain: u32,
    /// Give up after this many cycles (a run that cannot stop).
    pub max_cycles: u32,
}

impl BrakingModel {
    /// The campaign's vehicle: stops from full speed in roughly 120
    /// cycles under the clean demand ramp.
    pub fn nominal() -> Self {
        BrakingModel {
            initial_speed: 30_000,
            force_gain: 8,
            max_cycles: 2_000,
        }
    }

    /// The demand ramp the brake controller commands: the same shape as
    /// the storm campaigns' pedal profile, ramping to full force.
    pub fn demand(cycle: u32) -> u32 {
        (400 + 60 * cycle).min(3_500)
    }

    /// Brakes under `pattern` (true = the control job missed that
    /// cycle; the pattern repeats cyclically) and returns
    /// `(stopping distance, cycles, stopped)`. An empty pattern means
    /// all hits.
    pub fn brake(&self, pattern: &[bool], policy: MissPolicy) -> (u64, u32, bool) {
        let mut speed = u64::from(self.initial_speed);
        let mut distance = 0u64;
        let mut held_force = 0u32;
        let mut cycle = 0u32;
        // `pattern[at]` is this cycle's entry; `at` wraps to 0 at the
        // pattern's end, so no cycle pays a division.
        let mut at = 0usize;
        while speed > 0 && cycle < self.max_cycles {
            distance += speed;
            let missed = pattern.get(at).copied().unwrap_or(false);
            at += 1;
            if at >= pattern.len() {
                at = 0;
            }
            let applied = if missed {
                match policy {
                    MissPolicy::HoldLast => held_force,
                    MissPolicy::ZeroForce => 0,
                }
            } else {
                held_force = Self::demand(cycle);
                held_force
            };
            speed = speed.saturating_sub(u64::from(applied / self.force_gain.max(1)));
            cycle += 1;
        }
        (distance, cycle, speed == 0)
    }

    /// Scores a miss pattern against the all-hit clean twin, which is
    /// `self.brake(&[], policy)` for the same policy: the same for every
    /// pattern, so a campaign brakes it once and passes it to each score.
    pub fn score(
        &self,
        pattern: &[bool],
        policy: MissPolicy,
        clean: (u64, u32, bool),
    ) -> BrakingScore {
        let (clean_distance, clean_cycles, _) = clean;
        let (distance, cycles, stopped) = self.brake(pattern, policy);
        BrakingScore {
            clean_distance,
            distance,
            excess_distance: distance.saturating_sub(clean_distance),
            clean_stop_cycles: clean_cycles,
            stop_cycles: cycles,
            stopped,
        }
    }
}

/// The functional verdict on one miss pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrakingScore {
    /// Stopping distance of the all-hit twin.
    pub clean_distance: u64,
    /// Stopping distance under the pattern.
    pub distance: u64,
    /// Extra distance the misses cost (the headline number).
    pub excess_distance: u64,
    /// Cycles the clean twin needed to stop.
    pub clean_stop_cycles: u32,
    /// Cycles the degraded run needed (== `max_cycles` if it never
    /// stopped).
    pub stop_cycles: u32,
    /// Whether the degraded run stopped at all within the horizon.
    pub stopped: bool,
}

impl BrakingScore {
    /// Excess stopping distance as parts-per-million of the clean
    /// distance (integer, deterministic).
    pub fn excess_ppm(&self) -> u64 {
        if self.clean_distance == 0 {
            return 0;
        }
        self.excess_distance * 1_000_000 / self.clean_distance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlft_sim::rng::RngStream;

    /// Scores `pattern` against the clean twin the campaign brakes.
    fn score(m: &BrakingModel, pattern: &[bool], policy: MissPolicy) -> BrakingScore {
        m.score(pattern, policy, m.brake(&[], policy))
    }

    /// Reference: the braking loop indexed by `pattern[cycle % len]`.
    fn brake_by_modulo(m: &BrakingModel, pattern: &[bool], policy: MissPolicy) -> (u64, u32, bool) {
        let mut speed = u64::from(m.initial_speed);
        let mut distance = 0u64;
        let mut held_force = 0u32;
        let mut cycle = 0u32;
        while speed > 0 && cycle < m.max_cycles {
            distance += speed;
            let missed = !pattern.is_empty() && pattern[cycle as usize % pattern.len()];
            let applied = if missed {
                match policy {
                    MissPolicy::HoldLast => held_force,
                    MissPolicy::ZeroForce => 0,
                }
            } else {
                held_force = BrakingModel::demand(cycle);
                held_force
            };
            speed = speed.saturating_sub(u64::from(applied / m.force_gain.max(1)));
            cycle += 1;
        }
        (distance, cycle, speed == 0)
    }

    #[test]
    fn wrapping_index_brakes_like_the_modulo() {
        let m = BrakingModel::nominal();
        let mut rng = RngStream::new(0xB4A4E);
        for policy in [MissPolicy::HoldLast, MissPolicy::ZeroForce] {
            assert_eq!(m.brake(&[], policy), brake_by_modulo(&m, &[], policy));
            for len in 1..=20 {
                for _ in 0..16 {
                    // Miss rates from none to all, so runs both stop early
                    // and run to `max_cycles`.
                    let rate = rng.uniform_range(0, 5);
                    let pattern: Vec<bool> =
                        (0..len).map(|_| rng.uniform_range(0, 4) < rate).collect();
                    assert_eq!(
                        m.brake(&pattern, policy),
                        brake_by_modulo(&m, &pattern, policy),
                        "{pattern:?} under {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn clean_twin_has_zero_excess() {
        let m = BrakingModel::nominal();
        let s = score(&m, &[false; 8], MissPolicy::HoldLast);
        assert!(s.stopped);
        assert_eq!(s.excess_distance, 0);
        assert_eq!(s.stop_cycles, s.clean_stop_cycles);
    }

    #[test]
    fn all_miss_zero_force_never_stops() {
        let m = BrakingModel::nominal();
        let s = score(&m, &[true], MissPolicy::ZeroForce);
        assert!(!s.stopped, "no force ever applied");
        assert_eq!(s.stop_cycles, m.max_cycles);
        assert!(s.excess_distance > s.clean_distance);
    }

    #[test]
    fn misses_cost_distance_and_hold_beats_release() {
        let m = BrakingModel::nominal();
        let pattern = [true, false, true, false, false, false, false, false];
        let hold = score(&m, &pattern, MissPolicy::HoldLast);
        let zero = score(&m, &pattern, MissPolicy::ZeroForce);
        assert!(hold.excess_distance > 0, "misses must cost distance");
        assert!(
            hold.excess_distance < zero.excess_distance,
            "hold-last-safe must beat releasing the brake"
        );
        assert!(hold.stopped && zero.stopped);
    }

    #[test]
    fn denser_patterns_cost_more() {
        let m = BrakingModel::nominal();
        let sparse = score(&m, &[true, false, false, false], MissPolicy::HoldLast);
        let dense = score(&m, &[true, true, false, false], MissPolicy::HoldLast);
        assert!(dense.excess_distance > sparse.excess_distance);
        assert!(dense.excess_ppm() > sparse.excess_ppm());
    }

    #[test]
    fn scores_are_pinned() {
        // Golden pin: the campaign's functional metric must stay
        // bit-identical; any model change shows up here first.
        let m = BrakingModel::nominal();
        let clean = score(&m, &[], MissPolicy::HoldLast);
        assert_eq!(
            (clean.clean_distance, clean.clean_stop_cycles),
            (1_686_135, 92)
        );
        let s = score(&m, &[true, false, true, false, true], MissPolicy::HoldLast);
        assert_eq!(
            (s.distance, s.stop_cycles, s.stopped),
            (1_710_598, 93, true)
        );
    }
}
