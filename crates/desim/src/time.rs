//! Simulation time: a virtual clock with nanosecond resolution.
//!
//! All simulated experiments in this workspace run on a virtual clock that is
//! totally decoupled from wall time. `SimTime` is an instant on that clock and
//! `SimDuration` a span between instants. Both are thin wrappers over `u64`
//! nanoseconds, which gives us ~584 years of range — far beyond the 5-minute
//! runs the paper uses — while keeping ordering and arithmetic cheap and
//! total.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual simulation clock, in nanoseconds since the start
/// of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

pub const NANOS_PER_MICRO: u64 = 1_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(n: u64) -> Self {
        SimTime(n)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * NANOS_PER_MICRO)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Raw nanoseconds since the origin.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since origin as a float (lossy above 2^53 ns).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Milliseconds since origin as a float.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Saturating addition of a duration.
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span; useful as an "infinite timeout" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(n: u64) -> Self {
        SimDuration(n)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    /// Negative and non-finite inputs clamp to zero; huge inputs saturate.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let n = s * NANOS_PER_SEC as f64;
        if n >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(n.round() as u64)
        }
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Milliseconds as a float.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// True when the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Multiply by a non-negative float factor, saturating.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 -= other.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n >= NANOS_PER_SEC {
            write!(f, "{:.3}s", n as f64 / NANOS_PER_SEC as f64)
        } else if n >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", n as f64 / NANOS_PER_MILLI as f64)
        } else if n >= NANOS_PER_MICRO {
            write!(f, "{:.3}us", n as f64 / NANOS_PER_MICRO as f64)
        } else {
            write!(f, "{n}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5 * NANOS_PER_MILLI);
        assert_eq!(SimTime::from_micros(7).as_nanos(), 7 * NANOS_PER_MICRO);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!(t - SimTime::from_secs(1), SimDuration::from_secs(9));
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(0.001),
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimTime::ZERO < SimTime::MAX);
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(1));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn checked_add_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(5)),
            SimTime::MAX
        );
    }

    #[test]
    fn from_secs_f64_rounds_to_the_nearest_nanosecond() {
        assert_eq!(
            SimDuration::from_secs_f64(1.4e-9),
            SimDuration::from_nanos(1)
        );
        assert_eq!(
            SimDuration::from_secs_f64(1.6e-9),
            SimDuration::from_nanos(2)
        );
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
        assert!(SimDuration::from_secs_f64(0.0).is_zero());
    }

    #[test]
    fn duration_saturating_ops_clamp() {
        let one = SimDuration::from_secs(1);
        assert_eq!(
            one.saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::MAX.saturating_add(one), SimDuration::MAX);
        assert_eq!(
            one.mul_f64(-3.0),
            SimDuration::ZERO,
            "negative factor clamps"
        );
        assert_eq!(one.mul_f64(1e30), SimDuration::MAX);
    }

    #[test]
    fn assign_operators_match_binary_ones() {
        let mut t = SimTime::from_millis(5);
        t += SimDuration::from_millis(7);
        assert_eq!(t, SimTime::from_millis(12));
        let mut d = SimDuration::from_millis(9);
        d += SimDuration::from_millis(3);
        d -= SimDuration::from_millis(2);
        assert_eq!(d, SimDuration::from_millis(10));
        assert_eq!(d.as_millis_f64(), 10.0);
        assert_eq!(t.as_millis_f64(), 12.0);
    }

    #[test]
    fn sim_time_displays_as_its_offset_from_zero() {
        assert_eq!(SimTime::from_millis(1_500).to_string(), "1.500s");
        assert_eq!(SimTime::ZERO.to_string(), "0ns");
        assert_eq!(SimDuration::from_nanos(999).to_string(), "999ns");
        assert_eq!(SimDuration::from_nanos(1_000).to_string(), "1.000us");
    }
}
