//! `xr-bench compare <a.json> <b.json>`: one row per (end-to-end metric,
//! workload) with both values, the change, the bound and a verdict.
//!
//! A verdict is read off an interval for the relative change, positive
//! meaning worse: `worse` when the whole interval lies beyond the bound,
//! `better` when it lies beyond it the other way, `same` when it lies
//! within ±bound, and `unresolved` when it straddles a bound — the two
//! files' own spread is then wider than the bound can resolve.
//!
//! * `sim_wall_ns_per_msg`: when both runs did identical work (equal
//!   `model_digest`), slice *i* of one file simulated exactly what slice
//!   *i* of the other did, so the interval is the quartiles of the 40
//!   paired per-slice wall-time ratios. This is immune to the cost trend
//!   inside a run, which makes each file's own slice quartiles useless.
//! * `setup_s`: the quartiles of one file's cold set-up samples against
//!   the other's; its bound is 10 % or 0.05 s, whichever is larger.
//! * Everything else is one exact number per file: a point interval.

use crate::json::Value;
use crate::stats::quantile;
use crate::suite::END_TO_END;

/// The bounds `compare` holds two result files to (the issue's table);
/// BENCHMARK.json's, which the driver applies across seeds, are wider for
/// the virtual-time metrics because those differ from seed to seed.
fn bound(metric: &str, a_value: f64) -> f64 {
    match metric {
        "setup_s" => (0.05 / a_value).max(0.10),
        "sim_wall_ns_per_msg" | "peak_rss_mb" => 0.10,
        _ => 0.01,
    }
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// `lo..hi` is the relative change with positive = worse.
fn verdict(lo: f64, hi: f64, bound: f64) -> Verdict {
    if lo > bound {
        Verdict::Worse
    } else if hi < -bound {
        Verdict::Better
    } else if lo >= -bound && hi <= bound {
        Verdict::Same
    } else {
        Verdict::Unresolved
    }
}

struct Row {
    workload: String,
    metric: &'static str,
    a: f64,
    b: f64,
    change: f64,
    bound: f64,
    verdict: Verdict,
}

/// Interval `(lo, mid, hi)` of b/a − 1 for one metric of one workload.
fn change(
    metric: &str,
    a: &Value,
    b: &Value,
    va: f64,
    vb: f64,
    same_work: bool,
) -> (f64, f64, f64) {
    let point = vb / va - 1.0;
    match metric {
        "sim_wall_ns_per_msg" if same_work => {
            let (wa, wb) = (a.nums("slice_wall_ns"), b.nums("slice_wall_ns"));
            if wa.len() != wb.len() || wa.is_empty() {
                return (point, point, point);
            }
            let ratios: Vec<f64> = wa.iter().zip(&wb).map(|(x, y)| y / x - 1.0).collect();
            (
                quantile(&ratios, 0.25),
                quantile(&ratios, 0.5),
                quantile(&ratios, 0.75),
            )
        }
        "setup_s" => {
            let (sa, sb) = (a.nums("setup_s_samples"), b.nums("setup_s_samples"));
            if sa.is_empty() || sb.is_empty() {
                return (point, point, point);
            }
            (
                quantile(&sb, 0.25) / quantile(&sa, 0.75) - 1.0,
                point,
                quantile(&sb, 0.75) / quantile(&sa, 0.25) - 1.0,
            )
        }
        _ => (point, point, point),
    }
}

/// `(workload, model_digest equal)` for every workload both files hold.
type Digests = Vec<(String, bool)>;

fn rows(a: &Value, b: &Value) -> Result<(Vec<Row>, Digests), String> {
    let wa = a.get("workloads").ok_or("first file has no `workloads`")?;
    let wb = b.get("workloads").ok_or("second file has no `workloads`")?;
    let mut out = Vec::new();
    let mut digests = Vec::new();
    for (name, ra) in wa.fields() {
        let Some(rb) = wb.get(name) else { continue };
        let same_work =
            ra.str("model_digest").is_some() && ra.str("model_digest") == rb.str("model_digest");
        digests.push((name.clone(), same_work));
        for (metric, _, better, _) in END_TO_END {
            let get = |r: &Value| r.get("end_to_end")?.num(metric);
            let (Some(va), Some(vb)) = (get(ra), get(rb)) else {
                return Err(format!("{name}: `{metric}` missing from a file"));
            };
            let (mut lo, mut mid, mut hi) = change(metric, ra, rb, va, vb, same_work);
            if better == "higher" {
                (lo, mid, hi) = (-hi, -mid, -lo);
            }
            let bound = bound(metric, va);
            out.push(Row {
                workload: name.clone(),
                metric,
                a: va,
                b: vb,
                change: mid,
                bound,
                verdict: verdict(lo, hi, bound),
            });
        }
    }
    if out.is_empty() {
        return Err("the two files share no workload".to_string());
    }
    Ok((out, digests))
}

/// Print the table; exit code 1 when any row is `worse`.
pub fn run(path_a: &str, path_b: &str) -> Result<i32, String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in ["seed", "seconds"] {
        if a.num(key) != b.num(key) {
            eprintln!("xr-bench: warning: the files differ in `{key}`; they did different work");
        }
    }
    let (rows, digests) = rows(&a, &b)?;
    println!(
        "{:<13} {:<20} {:>15} {:>15} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for r in &rows {
        // `+ 0.0` turns the -0 of a negated exact zero into 0.
        println!(
            "{:<13} {:<20} {:>15.4} {:>15.4} {:>+8.2}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.change * 100.0 + 0.0,
            r.bound * 100.0,
            format!("{:?}", r.verdict).to_lowercase()
        );
    }
    for (w, same) in &digests {
        println!(
            "{w:<13} model_digest {}",
            if *same { "equal" } else { "DIFFERENT" }
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let (worse, unresolved) = (count(Verdict::Worse), count(Verdict::Unresolved));
    println!(
        "{} rows: {} better, {} same, {worse} worse, {unresolved} unresolved (positive change = worse)",
        rows.len(),
        count(Verdict::Better),
        count(Verdict::Same),
    );
    Ok(if worse > 0 { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_interval() {
        assert_eq!(verdict(0.12, 0.15, 0.10), Verdict::Worse);
        assert_eq!(verdict(-0.30, -0.20, 0.10), Verdict::Better);
        assert_eq!(verdict(-0.02, 0.03, 0.10), Verdict::Same);
        assert_eq!(verdict(0.05, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(-0.15, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.0, 0.0, 0.01), Verdict::Same);
    }

    fn file(wall_scale: f64, p99: f64, digest: &str) -> Value {
        let mut e2e = Value::obj();
        e2e.set("setup_s", 0.2)
            .set("sim_wall_ns_per_msg", 1000.0 * wall_scale)
            .set("peak_rss_mb", 10.0)
            .set("model_msgs_per_s", 5000.0)
            .set("model_lat_p50_ns", 100.0)
            .set("model_lat_p99_ns", p99);
        let mut w = Value::obj();
        // A run whose cost climbs fourfold from first slice to last.
        let walls: Vec<f64> = (0..40)
            .map(|i| (1000.0 + 75.0 * i as f64) * wall_scale)
            .collect();
        w.set("model_digest", digest)
            .set("slice_wall_ns", walls)
            .set("setup_s_samples", vec![0.19, 0.2, 0.21])
            .set("end_to_end", e2e);
        let mut ws = Value::obj();
        ws.set("pingpong_qd1", w);
        let mut f = Value::obj();
        f.set("workloads", ws);
        f
    }

    fn verdict_of<'a>(rows: &'a [Row], metric: &str) -> &'a Verdict {
        &rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn paired_slices_see_through_the_trend() {
        let (same, digests) = rows(&file(1.0, 200.0, "d"), &file(1.02, 200.0, "d")).unwrap();
        assert!(same.iter().all(|r| r.verdict == Verdict::Same));
        assert_eq!(digests, vec![("pingpong_qd1".to_string(), true)]);
        let (slower, _) = rows(&file(1.0, 200.0, "d"), &file(1.2, 200.0, "d")).unwrap();
        assert_eq!(*verdict_of(&slower, "sim_wall_ns_per_msg"), Verdict::Worse);
        let (faster, _) = rows(&file(1.0, 200.0, "d"), &file(0.5, 200.0, "d")).unwrap();
        assert_eq!(*verdict_of(&faster, "sim_wall_ns_per_msg"), Verdict::Better);
    }

    #[test]
    fn model_change_is_worse_beyond_one_percent() {
        let (r, digests) = rows(&file(1.0, 200.0, "d"), &file(1.0, 203.0, "e")).unwrap();
        assert_eq!(*verdict_of(&r, "model_lat_p99_ns"), Verdict::Worse);
        assert_eq!(*verdict_of(&r, "model_lat_p50_ns"), Verdict::Same);
        assert!(!digests[0].1);
    }
}
