//! # xrdma-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the X-RDMA reproduction. Everything above
//! it — the Clos fabric, the simulated RNIC, the X-RDMA middleware, the
//! application models — runs inside a [`World`]: a single-threaded,
//! deterministic discrete-event simulator with a virtual nanosecond clock.
//!
//! Design goals (see DESIGN.md §3):
//!
//! * **Determinism.** Same seed ⇒ bit-identical event order and results.
//!   Ties in the event heap are broken by insertion sequence number, and all
//!   randomness flows through [`SimRng`] streams forked from a root seed.
//! * **Single-threaded worlds, parallel sweeps.** A `World` is deliberately
//!   `!Send`/`!Sync` (it is built from `Rc`/`Cell`/`RefCell`), and the
//!   per-host lane engine, [`ShardWorld`], runs all its lanes on the
//!   calling thread too; the benchmark harness runs many independent
//!   worlds on separate rayon workers.
//! * **Cheap virtual time.** [`Time`] and [`Dur`] are thin `u64` nanosecond
//!   wrappers; the hot path (schedule/pop) does no allocation beyond the
//!   boxed callback.
//!
//! The crate also provides the measurement toolkit shared by every
//! experiment: log-linear latency [`stats::Histogram`]s, bucketed
//! [`stats::TimeSeries`], and monotonic [`stats::Counter`]s.

pub mod cpu;
pub mod inthash;
pub mod rng;
pub(crate) mod sched;
pub mod shard;
pub mod stats;
pub mod time;
pub mod world;

pub use cpu::CpuThread;
pub use rng::SimRng;
pub use shard::{Lane, LaneRecord, ShardConfig, ShardWorld};
pub use time::{Dur, Time};
pub use world::{DelayLine, EventId, Timer, World};

/// Runtime protocol-invariant check (DESIGN.md "Determinism contract").
///
/// Expands to an `assert!` that is compiled in when the invoking crate's
/// `debug_invariants` feature is enabled, and always in that crate's own
/// unit tests (`cfg(test)`), so every checker is exercised by the regular
/// test suite. In plain release builds the check costs nothing.
///
/// The condition must be side-effect free: with the feature off it is
/// never evaluated, and an invariant whose *evaluation* matters would make
/// checked and unchecked builds diverge — the exact bug class this exists
/// to catch.
///
/// A failing invariant routes through [`invariant_failure`], which notifies
/// the installed [invariant observer](set_invariant_observer) — the
/// telemetry flight recorder's dump trigger — before panicking with the
/// same message `assert!` would have produced.
#[macro_export]
macro_rules! invariant {
    ($cond:expr $(,)?) => {
        if cfg!(any(test, feature = "debug_invariants")) && !($cond) {
            $crate::invariant_failure(concat!("assertion failed: ", stringify!($cond)));
        }
    };
    ($cond:expr, $($arg:tt)+) => {
        if cfg!(any(test, feature = "debug_invariants")) && !($cond) {
            $crate::invariant_failure(&format!($($arg)+));
        }
    };
}

thread_local! {
    static INVARIANT_OBSERVER: std::cell::RefCell<Option<Box<dyn Fn(&str)>>> =
        const { std::cell::RefCell::new(None) };
}

/// Install a callback that sees every `invariant!` failure message on this
/// thread just before the panic unwinds. One observer per thread (worlds
/// are per-thread); installing replaces the previous one.
pub fn set_invariant_observer(f: impl Fn(&str) + 'static) {
    INVARIANT_OBSERVER.with(|o| *o.borrow_mut() = Some(Box::new(f)));
}

/// Remove the thread's invariant observer.
pub fn clear_invariant_observer() {
    INVARIANT_OBSERVER.with(|o| *o.borrow_mut() = None);
}

/// Terminal path of a failed [`invariant!`]: notify the observer, then
/// panic with the assertion message. Public only because the macro expands
/// in downstream crates.
pub fn invariant_failure(msg: &str) -> ! {
    INVARIANT_OBSERVER.with(|o| {
        if let Some(f) = o.borrow().as_ref() {
            f(msg);
        }
    });
    panic!("{msg}");
}

#[cfg(test)]
mod invariant_tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn observer_sees_the_message_before_the_panic() {
        let seen: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let s2 = seen.clone();
        crate::set_invariant_observer(move |m| s2.borrow_mut().push(m.to_string()));
        let err = std::panic::catch_unwind(|| {
            crate::invariant!(1 + 1 == 3, "math broke at {}", 42);
        })
        .expect_err("invariant fires in tests");
        crate::clear_invariant_observer();
        assert_eq!(seen.borrow().as_slice(), ["math broke at 42"]);
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "math broke at 42");
    }

    #[test]
    fn bare_condition_keeps_assert_style_message() {
        let err = std::panic::catch_unwind(|| {
            crate::invariant!(false);
        })
        .expect_err("fires");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "assertion failed: false");
    }

    #[test]
    fn passing_invariants_do_not_touch_the_observer() {
        crate::set_invariant_observer(|_| panic!("must not fire"));
        crate::invariant!(true, "fine");
        crate::invariant!(2 > 1);
        crate::clear_invariant_observer();
    }
}
