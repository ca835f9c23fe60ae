use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time with nanosecond resolution.
///
/// # Examples
///
/// ```
/// use rna_simnet::SimDuration;
///
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d.as_micros(), 2500);
/// assert!((d.as_secs_f64() - 0.0025).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole microseconds, saturating at the
    /// longest duration (`u64::MAX` ns, ~584 years), so `u64::MAX` means
    /// "the whole run".
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// Creates a duration from whole milliseconds, saturating at the
    /// longest duration as [`SimDuration::from_micros`] does.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Creates a duration from whole seconds, saturating at the longest
    /// duration as [`SimDuration::from_micros`] does.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(1_000_000_000))
    }

    /// Creates a duration from fractional seconds, saturating negative
    /// values to zero.
    ///
    /// # Panics
    ///
    /// Panics if `s` is NaN or large enough to overflow the nanosecond
    /// counter (~584 years).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(!s.is_nan(), "duration cannot be NaN");
        let ns = (s.max(0.0) * 1e9).round();
        assert!(ns <= u64::MAX as f64, "duration overflow");
        SimDuration(ns as u64)
    }

    /// Creates a duration from fractional milliseconds, saturating negative
    /// values to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Whole nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncated).
    pub const fn as_micros(&self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether the duration is zero.
    pub const fn is_zero(&self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
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

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
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

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.as_micros())
        }
    }
}

/// An instant on the virtual clock, measured from simulation start.
///
/// # Examples
///
/// ```
/// use rna_simnet::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(10);
/// assert_eq!(t.elapsed_since(SimTime::ZERO), SimDuration::from_millis(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `ns` nanoseconds after simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Fractional seconds since simulation start.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds since simulation start.
    pub fn as_millis_f64(&self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    pub fn elapsed_since(&self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier <= *self, "elapsed_since of a later instant");
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
    }

    /// The longest duration, and the largest whole count of `unit`
    /// nanoseconds below it, which still converts exactly.
    fn saturates(from: fn(u64) -> SimDuration, unit: u64) {
        assert_eq!(from(u64::MAX), SimDuration::from_nanos(u64::MAX));
        assert_eq!(from(u64::MAX / unit).as_nanos(), u64::MAX / unit * unit);
    }

    #[test]
    fn from_micros_saturates_at_u64_max() {
        const WHOLE_RUN: SimDuration = SimDuration::from_micros(u64::MAX);
        assert_eq!(WHOLE_RUN.as_nanos(), u64::MAX);
        saturates(SimDuration::from_micros, 1_000);
    }

    #[test]
    fn from_millis_saturates_at_u64_max() {
        saturates(SimDuration::from_millis, 1_000_000);
    }

    #[test]
    fn from_secs_saturates_at_u64_max() {
        saturates(SimDuration::from_secs, 1_000_000_000);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(
            SimDuration::from_secs_f64(0.001),
            SimDuration::from_millis(1)
        );
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn from_millis_f64() {
        assert_eq!(
            SimDuration::from_millis_f64(1.5),
            SimDuration::from_micros(1500)
        );
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn from_secs_f64_rejects_nan() {
        SimDuration::from_secs_f64(f64::NAN);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_millis(3);
        let b = SimDuration::from_millis(1);
        assert_eq!(a + b, SimDuration::from_millis(4));
        assert_eq!(a - b, SimDuration::from_millis(2));
        assert_eq!(a * 2, SimDuration::from_millis(6));
        assert_eq!(a / 3, SimDuration::from_millis(1));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a * 0.5, SimDuration::from_micros(1500));
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=3).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(6));
    }

    #[test]
    fn time_advances() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_micros(7);
        assert_eq!(t.as_nanos(), 7_000);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_micros(7));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(2)), "2us");
        assert!(!format!("{}", SimTime::ZERO).is_empty());
    }

    proptest! {
        #[test]
        fn f64_roundtrip_close(ms in 0.0f64..1e7) {
            let d = SimDuration::from_millis_f64(ms);
            prop_assert!((d.as_millis_f64() - ms).abs() < 1e-3);
        }

        #[test]
        fn ordering_matches_nanos(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let (da, db) = (SimDuration::from_nanos(a), SimDuration::from_nanos(b));
            prop_assert_eq!(da < db, a < b);
            let (ta, tb) = (SimTime::from_nanos(a), SimTime::from_nanos(b));
            prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
        }
    }
}
