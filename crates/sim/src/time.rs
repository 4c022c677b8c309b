//! Virtual time primitives.
//!
//! The simulation clock counts nanoseconds from world creation. [`Time`] is
//! an absolute instant, [`Dur`] a span; both are thin `u64` wrappers so they
//! are free to copy and compare on the event-heap hot path.

use core::fmt;

use core::ops::{Add, AddAssign, Div, Mul, Sub};
use serde::Serialize;

/// An absolute instant on the virtual clock, in nanoseconds since the world
/// was created.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Time(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Dur(pub u64);

impl Time {
    /// The world-creation instant.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as "never" for timers.
    pub const MAX: Time = Time(u64::MAX);

    /// Nanoseconds since world creation.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since world creation (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional microseconds since world creation (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    #[inline]
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }

    /// Saturating add that never wraps past [`Time::MAX`].
    #[inline]
    pub fn saturating_add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl Dur {
    pub const ZERO: Dur = Dur(0);

    /// A span of `n` nanoseconds.
    #[inline]
    pub const fn nanos(n: u64) -> Dur {
        Dur(n)
    }

    /// A span of `n` microseconds.
    #[inline]
    pub const fn micros(n: u64) -> Dur {
        Dur(n * 1_000)
    }

    /// A span of `n` milliseconds.
    #[inline]
    pub const fn millis(n: u64) -> Dur {
        Dur(n * 1_000_000)
    }

    /// A span of `n` seconds.
    #[inline]
    pub const fn secs(n: u64) -> Dur {
        Dur(n * 1_000_000_000)
    }

    /// A span of fractional seconds, rounded to the nearest nanosecond.
    #[inline]
    pub fn secs_f64(s: f64) -> Dur {
        debug_assert!(s >= 0.0, "negative duration");
        Dur((s * 1e9).round() as u64)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional microseconds (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: Dur) -> Dur {
        Dur(self.0.saturating_sub(other.0))
    }

    /// `self * num / den` with intermediate u128 precision — used for
    /// serialization-delay math (`bytes * ns_per_sec / bytes_per_sec`).
    #[inline]
    pub fn mul_div(self, num: u64, den: u64) -> Dur {
        debug_assert!(den != 0);
        Dur((self.0 as u128 * num as u128 / den as u128) as u64)
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        debug_assert!(self.0 >= rhs.0, "time went backwards");
        Dur(self.0 - rhs.0)
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn sub(self, rhs: Dur) -> Dur {
        debug_assert!(self.0 >= rhs.0, "negative duration");
        Dur(self.0 - rhs.0)
    }
}

impl Mul<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn mul(self, rhs: u64) -> Dur {
        Dur(self.0 * rhs)
    }
}

impl Div<u64> for Dur {
    type Output = Dur;
    #[inline]
    fn div(self, rhs: u64) -> Dur {
        Dur(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", fmt_ns(self.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_ns(self.0))
    }
}

/// Render a nanosecond count with a human-friendly unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Compute the serialization delay of `bytes` over a link of
/// `gbps` gigabits per second, as virtual time.
///
/// This is the one conversion every layer of the stack needs, so it lives
/// here: `delay = bytes * 8 / (gbps * 1e9) seconds`.
#[inline]
pub fn wire_time(bytes: u64, gbps: f64) -> Dur {
    debug_assert!(gbps > 0.0);
    Dur(((bytes as f64 * 8.0) / gbps).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units() {
        assert_eq!(Dur::micros(3).as_nanos(), 3_000);
        assert_eq!(Dur::millis(2).as_nanos(), 2_000_000);
        assert_eq!(Dur::secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Dur::secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::ZERO + Dur::micros(5);
        assert_eq!(t.nanos(), 5_000);
        let t2 = t + Dur::nanos(10);
        assert_eq!((t2 - t).as_nanos(), 10);
        assert_eq!(t2.since(t).as_nanos(), 10);
        assert_eq!(t.since(t2).as_nanos(), 0, "since saturates");
        assert_eq!((Dur::nanos(6) / 2).as_nanos(), 3);
        assert_eq!((Dur::nanos(6) * 2).as_nanos(), 12);
    }

    #[test]
    fn wire_time_25gbps() {
        // 4 KiB at 25 Gb/s = 4096*8/25 ns = 1310.72 -> 1311 ns.
        assert_eq!(wire_time(4096, 25.0).as_nanos(), 1311);
        // 1 byte at 100 Gb/s rounds to 0.08 -> 0 ns.
        assert_eq!(wire_time(1, 100.0).as_nanos(), 0);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Dur::nanos(12)), "12ns");
        assert_eq!(format!("{}", Dur::micros(12)), "12.000us");
        assert_eq!(format!("{}", Dur::millis(12)), "12.000ms");
        assert_eq!(format!("{}", Dur::secs(12)), "12.000s");
    }

    #[test]
    fn saturating() {
        assert_eq!(Time::MAX.saturating_add(Dur::secs(1)), Time::MAX);
        assert_eq!(Dur::nanos(1).saturating_sub(Dur::nanos(5)), Dur::ZERO);
    }

    #[test]
    fn mul_div_no_overflow() {
        // 10 seconds * large ratio would overflow u64 multiplication naively.
        let d = Dur::secs(10);
        assert_eq!(d.mul_div(1_000_000, 1_000_000), d);
        assert_eq!(d.mul_div(3, 2).as_nanos(), 15_000_000_000);
    }
}
