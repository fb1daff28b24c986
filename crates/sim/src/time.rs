//! Simulation time types.
//!
//! All simulators in this workspace share a single discrete notion of time:
//! an unsigned number of *nanoseconds* since the start of the simulation.
//! Nanosecond resolution is fine enough for the instruction-level machine
//! simulator (which advances in cycles of a configurable nanosecond length)
//! while `u64` still spans more than 580 years of simulated time, which
//! comfortably covers the one-year reliability horizons used by the
//! Monte-Carlo dependability experiments.
//!
//! Two newtypes are provided ([C-NEWTYPE]): [`SimTime`] is a point on the
//! simulation clock and [`SimDuration`] is a length of simulated time.
//! Arithmetic between them mirrors `std::time::{Instant, Duration}`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in simulated time, measured in nanoseconds from simulation start.
///
/// # Examples
///
/// ```
/// use nlft_sim::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_micros(), 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in nanoseconds.
///
/// # Examples
///
/// ```
/// use nlft_sim::time::SimDuration;
///
/// let d = SimDuration::from_micros(250) * 4;
/// assert_eq!(d, SimDuration::from_millis(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

const NANOS_PER_MICRO: u64 = 1_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_SEC: u64 = 1_000_000_000;
const NANOS_PER_HOUR: u64 = 3_600 * NANOS_PER_SEC;

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "never" sentinel by schedulers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * NANOS_PER_MICRO)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Creates a time from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Raw nanosecond count since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since simulation start (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / NANOS_PER_MICRO
    }

    /// Whole milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Hours since simulation start as a float (used by reliability models).
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_HOUR as f64
    }

    /// Creates a time from a floating-point number of hours.
    ///
    /// Saturates at [`SimTime::MAX`]; negative or NaN inputs map to zero.
    pub fn from_hours_f64(hours: f64) -> Self {
        let nanos = hours * NANOS_PER_HOUR as f64;
        if nanos.is_nan() || nanos <= 0.0 {
            SimTime::ZERO
        } else if nanos >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(nanos as u64)
        }
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from a floating-point number of seconds.
    ///
    /// Saturates at [`SimDuration::MAX`]; negative or NaN inputs map to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        let nanos = secs * NANOS_PER_SEC as f64;
        if nanos.is_nan() || nanos <= 0.0 {
            SimDuration::ZERO
        } else if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos as u64)
        }
    }

    /// Creates a duration from a floating-point number of hours.
    ///
    /// Saturates like [`SimDuration::from_secs_f64`].
    pub fn from_hours_f64(hours: f64) -> Self {
        SimDuration::from_secs_f64(hours * 3_600.0)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / NANOS_PER_MICRO
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Hours as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_HOUR as f64
    }

    /// `true` when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Checked multiplication by a scalar; `None` on overflow.
    pub fn checked_mul(self, k: u64) -> Option<SimDuration> {
        self.0.checked_mul(k).map(SimDuration)
    }

    /// Integer ceiling division: how many intervals of `other` cover `self`.
    ///
    /// This is the `⌈R/T⌉` operator of response-time analysis.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_ceil(self, other: SimDuration) -> u64 {
        assert!(!other.is_zero(), "division by zero duration");
        self.0.div_ceil(other.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Rem for SimDuration {
    type Output = SimDuration;
    fn rem(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 % rhs.0)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= NANOS_PER_SEC {
            write!(f, "{:.3}s", ns as f64 / NANOS_PER_SEC as f64)
        } else if ns >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", ns as f64 / NANOS_PER_MILLI as f64)
        } else if ns >= NANOS_PER_MICRO {
            write!(f, "{:.3}us", ns as f64 / NANOS_PER_MICRO as f64)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs(3).as_millis(), 3_000);
    }

    #[test]
    fn arithmetic_matches_std_conventions() {
        let t0 = SimTime::from_millis(10);
        let t1 = t0 + SimDuration::from_millis(5);
        assert_eq!(t1 - t0, SimDuration::from_millis(5));
        assert_eq!(t1 - SimDuration::from_millis(15), SimTime::ZERO);
    }

    #[test]
    fn div_ceil_is_response_time_ceiling() {
        let r = SimDuration::from_micros(250);
        let t = SimDuration::from_micros(100);
        assert_eq!(r.div_ceil(t), 3);
        assert_eq!(SimDuration::from_micros(200).div_ceil(t), 2);
        assert_eq!(SimDuration::ZERO.div_ceil(t), 0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_ceil_rejects_zero_divisor() {
        let _ = SimDuration::from_micros(1).div_ceil(SimDuration::ZERO);
    }

    #[test]
    fn hours_round_trip_within_tolerance() {
        let t = SimTime::from_hours_f64(8_760.0); // one year
        assert!((t.as_hours_f64() - 8_760.0).abs() < 1e-6);
    }

    #[test]
    fn float_constructors_handle_pathological_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(SimTime::from_hours_f64(f64::NAN), SimTime::ZERO);
    }

    #[test]
    fn display_picks_human_units() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_micros(2).to_string(), "2.000us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn checked_ops_detect_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert!(SimDuration::MAX.checked_mul(2).is_none());
        assert_eq!(
            SimDuration::from_nanos(4).checked_mul(2),
            Some(SimDuration::from_nanos(8))
        );
    }
}
