//! Virtual time for the discrete-event simulation.
//!
//! Every latency in the reproduction — disk service times, workload
//! inter-arrival gaps, idle-grace windows — is expressed in virtual
//! nanoseconds. Experiments advance a [`SimInstant`] instead of sleeping,
//! so a 30-minute run (the paper's experiment length, §6.1.3) finishes in
//! milliseconds of wall-clock time and is perfectly reproducible.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time with nanosecond resolution.
///
/// Backed by a `u64`, which covers ~584 years — far beyond any
/// experiment length.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// The longest representable duration (~584 years).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration: {s}");
        SimDuration((s * 1e9).round() as u64)
    }

    /// Returns the duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; clamps at zero instead of underflowing.
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating addition; clamps at [`SimDuration::MAX`].
    pub const fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating scalar multiplication; clamps at
    /// [`SimDuration::MAX`] instead of overflowing (the plain `*`
    /// operator panics on overflow in debug builds).
    pub const fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Returns true if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a non-negative float, rounding to the
    /// nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or not finite.
    pub fn mul_f64(self, f: f64) -> SimDuration {
        assert!(f.is_finite() && f >= 0.0, "invalid scale factor: {f}");
        SimDuration((self.0 as f64 * f).round() as u64)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{}ns", ns)
        }
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

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

/// A point in virtual time, measured from the start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The origin of virtual time.
    pub const EPOCH: SimInstant = SimInstant(0);

    /// Creates an instant at `ns` nanoseconds past the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimInstant(ns)
    }

    /// Returns nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Returns the elapsed duration, or zero if `earlier` is in the future.
    pub const fn saturating_duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Debug for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(3);
        let b = SimDuration::from_millis(2);
        assert_eq!(a + b, SimDuration::from_millis(5));
        assert_eq!(a - b, SimDuration::from_millis(1));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a * 4, SimDuration::from_millis(12));
        assert_eq!(a / 3, SimDuration::from_millis(1));
    }

    #[test]
    fn duration_float_conversions() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d, SimDuration::from_millis(1500));
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((d.as_millis_f64() - 1500.0).abs() < 1e-9);
        assert_eq!(d.mul_f64(2.0), SimDuration::from_secs(3));
    }

    #[test]
    fn duration_display_units() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_micros(17).to_string(), "17.000us");
        assert_eq!(SimDuration::from_millis(17).to_string(), "17.000ms");
        assert_eq!(SimDuration::from_secs(17).to_string(), "17.000s");
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn instant_ordering_and_since() {
        let t0 = SimInstant::EPOCH;
        let t1 = t0 + SimDuration::from_secs(1);
        assert!(t1 > t0);
        assert_eq!(t1.duration_since(t0), SimDuration::from_secs(1));
        assert_eq!(t0.saturating_duration_since(t1), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn instant_duration_since_panics_on_reversal() {
        let t0 = SimInstant::EPOCH;
        let t1 = t0 + SimDuration::from_secs(1);
        let _ = t0.duration_since(t1);
    }
}
