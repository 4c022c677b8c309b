//! The determinism contract's type-checked bans, proved live (DESIGN.md
//! §7.1).
//!
//! D1 `wall-clock`, D2 `ambient-randomness`, D3 `nondeterministic-iter`,
//! D4's `thread::spawn` half and T1 `raw-telemetry-emit` are clippy lints:
//! `disallowed-methods` entries in the workspace `clippy.toml`, plus
//! `clippy::iter_over_hash_type` for D3's `for` loops. Each test below
//! makes one banned call under an `#[expect]`. Drop a ban and its
//! expectation goes unfulfilled, which fails `cargo clippy --all-targets
//! -- -D warnings`: that ci step is the rules' self-test. The `for`-loop
//! lint is the exception: an `#[expect]` turns it on by itself, so a plain
//! test holds its workspace setting. The unmarked test at the end is the
//! negative case, which must stay clean. The tests of `xrdma-fabric`'s
//! crate root repeat D1 and T1 in a stack crate: a planted wall-clock read
//! fires there, and the telemetry macros stay clean.
//!
//! The one D3 shape clippy cannot ban is an explicit `.into_iter()` on a
//! hash container outside a `for`: `IntoIterator::into_iter` could only
//! be banned for every type.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use xrdma_sim::inthash::IntMap;
use xrdma_telemetry::hub;
use xrdma_telemetry::span::{SpanToken, Stage};

fn map() -> HashMap<u32, u64> {
    HashMap::from([(1, 10), (2, 20)])
}

fn set() -> HashSet<u32> {
    HashSet::from([1, 2])
}

// --- D1 wall-clock -------------------------------------------------------

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D1 must fire")]
fn d1_instant_now() {
    let _ = std::time::Instant::now();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D1 must fire")]
fn d1_system_time_now() {
    let _ = std::time::SystemTime::now();
}

// --- D2 ambient-randomness -----------------------------------------------

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D2 must fire")]
fn d2_random_state_new() {
    let _ = std::hash::RandomState::new();
}

// --- D3 nondeterministic-iter: the `for` half ----------------------------

#[test]
#[expect(clippy::iter_over_hash_type, reason = "contract: D3 must fire")]
fn d3_for_over_hash_map() {
    let m = map();
    let mut sum = 0;
    for (k, v) in &m {
        sum += u64::from(*k) + v;
    }
    assert_eq!(sum, 33);
}

#[test]
#[expect(clippy::iter_over_hash_type, reason = "contract: D3 must fire")]
fn d3_for_over_hash_set() {
    let mut n = 0;
    for _ in set() {
        n += 1;
    }
    assert_eq!(n, 2);
}

/// An `#[expect]` raises its lint's level by itself, so the two tests above
/// prove the lint, not the workspace setting that turns it on everywhere
/// else; this test holds that setting.
#[test]
fn d3_for_half_is_on_for_the_workspace() {
    let manifest = include_str!("../../../Cargo.toml");
    let lints = manifest
        .split("[workspace.lints.clippy]")
        .nth(1)
        .and_then(|rest| rest.split("\n[").next());
    assert!(
        lints.is_some_and(|l| l
            .lines()
            .any(|l| l.trim() == "iter_over_hash_type = \"warn\"")),
        "[workspace.lints.clippy] must set iter_over_hash_type = \"warn\""
    );
}

// --- D3 nondeterministic-iter: the method-chain half ---------------------

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D3 must fire")]
fn d3_hash_map_iter() {
    assert_eq!(
        map().iter().map(|(k, v)| u64::from(*k) + v).sum::<u64>(),
        33
    );
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D3 must fire")]
fn d3_hash_map_iter_mut() {
    let mut m = map();
    m.iter_mut().for_each(|(_, v)| *v += 1);
    assert_eq!(m[&1], 11);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D3 must fire")]
fn d3_hash_map_keys() {
    assert_eq!(map().keys().count(), 2);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D3 must fire")]
fn d3_hash_map_values() {
    assert_eq!(map().values().sum::<u64>(), 30);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D3 must fire")]
fn d3_hash_map_values_mut() {
    assert_eq!(map().values_mut().count(), 2);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D3 must fire")]
fn d3_hash_map_drain() {
    assert_eq!(map().drain().count(), 2);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D3 must fire")]
fn d3_hash_map_retain() {
    let mut m = map();
    m.retain(|&k, _| k > 1);
    assert_eq!(m.len(), 1);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D3 must fire")]
fn d3_hash_map_into_keys() {
    assert_eq!(map().into_keys().count(), 2);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D3 must fire")]
fn d3_hash_map_into_values() {
    assert_eq!(map().into_values().count(), 2);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D3 must fire")]
fn d3_hash_set_iter() {
    assert_eq!(set().iter().sum::<u32>(), 3);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D3 must fire")]
fn d3_hash_set_drain() {
    assert_eq!(set().drain().count(), 2);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D3 must fire")]
fn d3_hash_set_retain() {
    let mut s = set();
    s.retain(|&k| k > 1);
    assert_eq!(s.len(), 1);
}

/// Types, not names: the ban follows an alias with a custom hasher.
#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D3 must fire")]
fn d3_sees_through_an_alias() {
    let mut m: IntMap<u32, u64> = IntMap::default();
    m.insert(7, 1);
    assert_eq!(m.values().sum::<u64>(), 1);
}

// --- D4 intra-world-parallelism ------------------------------------------

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: D4 must fire")]
fn d4_thread_spawn() {
    std::thread::spawn(|| {}).join().unwrap();
}

// --- T1 raw-telemetry-emit -----------------------------------------------
// No hub is installed on a test thread, so each raw call does nothing.

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: T1 must fire")]
fn t1_emit_raw() {
    hub::emit_raw(xrdma_telemetry::EventKind::SeqDuplicate { seq: 1 });
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: T1 must fire")]
fn t1_span_open_raw() {
    assert_eq!(hub::span_open_raw(0, 1, 2, 64), SpanToken::NONE);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: T1 must fire")]
fn t1_span_mark_raw() {
    hub::span_mark_raw(SpanToken::NONE, Stage::Rx);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: T1 must fire")]
fn t1_span_hop_raw() {
    hub::span_hop_raw(SpanToken::NONE, &Arc::from("sw0:1"), 0);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "contract: T1 must fire")]
fn t1_span_end_raw() {
    hub::span_end_raw(SpanToken::NONE, 0);
}

// --- Negative case: no `expect`, so any lint here fails clippy -----------

#[test]
fn ordered_iteration_and_hash_lookups_are_clean() {
    let ordered = BTreeMap::from([(2, 20u64), (1, 10)]);
    let mut entries = Vec::new();
    for (k, v) in &ordered {
        entries.push((*k, *v));
    }
    assert_eq!(entries, [(1, 10), (2, 20)]);
    let mut m = map();
    m.insert(3, 30);
    assert_eq!(m.get(&1), Some(&10));
    assert!(m.contains_key(&3) && set().contains(&2));
}
