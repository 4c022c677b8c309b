//! Paper-vs-measured reporting: every experiment prints a uniform
//! comparison table and persists machine-readable artifacts for
//! EXPERIMENTS.md.
//!
//! Artifact layout per experiment, in the directory given to
//! [`Report::write`] (the workspace `results/` by default):
//!
//! * `<experiment>.json` — rows, verdicts, and every attached series as a
//!   named JSON object;
//! * any extra files attached via [`Report::attach_file`] (e.g. a Chrome
//!   `trace_event` dump from the telemetry hub).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use serde::{write_json_str, Serialize};

/// One compared quantity.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    pub metric: String,
    pub paper: String,
    pub measured: String,
    /// Does the measured value preserve the paper's claim (direction /
    /// rough magnitude)?
    pub holds: bool,
}

/// A whole experiment report.
#[derive(Clone, Debug)]
pub struct Report {
    pub experiment: String,
    pub description: String,
    pub rows: Vec<Row>,
    /// Free-form series dumps (plot data) keyed by name.
    pub series: Vec<(String, Vec<(f64, f64)>)>,
    /// Extra artifacts written verbatim next to the JSON by
    /// [`Report::write`]: `(file name, contents)`.
    pub extra_files: Vec<(String, String)>,
}

impl Report {
    pub fn new(experiment: &str, description: &str) -> Report {
        Report {
            experiment: experiment.to_string(),
            description: description.to_string(),
            rows: Vec::new(),
            series: Vec::new(),
            extra_files: Vec::new(),
        }
    }

    /// Add a compared metric.
    pub fn row(
        &mut self,
        metric: &str,
        paper: impl ToString,
        measured: impl ToString,
        holds: bool,
    ) {
        self.rows.push(Row {
            metric: metric.to_string(),
            paper: paper.to_string(),
            measured: measured.to_string(),
            holds,
        });
    }

    /// Attach a plottable series.
    pub fn series(&mut self, name: &str, rows: Vec<(f64, f64)>) {
        self.series.push((name.to_string(), rows));
    }

    /// Attach a verbatim artifact (e.g. `fig10_flowctl.trace.json`) to be
    /// written next to the JSON by [`Report::write`].
    pub fn attach_file(&mut self, name: &str, contents: String) {
        self.extra_files.push((name.to_string(), contents));
    }

    /// Render the comparison table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.experiment, self.description);
        let w = self
            .rows
            .iter()
            .map(|r| r.metric.len())
            .max()
            .unwrap_or(10)
            .max(6);
        let pw = self
            .rows
            .iter()
            .map(|r| r.paper.len())
            .max()
            .unwrap_or(8)
            .max(5);
        let mw = self
            .rows
            .iter()
            .map(|r| r.measured.len())
            .max()
            .unwrap_or(8)
            .max(8);
        let _ = writeln!(
            out,
            "{:w$}  {:>pw$}  {:>mw$}  shape",
            "metric", "paper", "measured"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:w$}  {:>pw$}  {:>mw$}  {}",
                r.metric,
                r.paper,
                r.measured,
                if r.holds { "HOLDS" } else { "DIFFERS" }
            );
        }
        out
    }

    /// Do all rows hold?
    pub fn all_hold(&self) -> bool {
        self.rows.iter().all(|r| r.holds)
    }

    /// Print the table, then write `<experiment>.json` and every attached
    /// file into `dir`, creating it if needed.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        println!("{}", self.render());
        for (name, rows) in &self.series {
            println!("series {name} ({} points)", rows.len());
        }
        fs::create_dir_all(dir)?;
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        let put = |name: &str, contents: &str| -> io::Result<()> {
            let path = dir.join(name);
            fs::write(&path, contents)?;
            println!("wrote {}", path.display());
            Ok(())
        };
        put(&format!("{}.json", self.experiment), &json)?;
        for (name, contents) in &self.extra_files {
            put(name, contents)?;
        }
        println!(
            "[{}] {}",
            self.experiment,
            if self.all_hold() {
                "all shapes HOLD"
            } else {
                "some shapes DIFFER (see rows)"
            }
        );
        Ok(())
    }
}

// Hand-written so `series` serializes as a named JSON object (the derive
// would emit an array of pairs), keeping `results/*.json` self-describing.
impl Serialize for Report {
    fn json_into(&self, out: &mut String) {
        out.push_str("{\"experiment\":");
        write_json_str(&self.experiment, out);
        out.push_str(",\"description\":");
        write_json_str(&self.description, out);
        out.push_str(",\"all_hold\":");
        self.all_hold().json_into(out);
        out.push_str(",\"rows\":");
        self.rows.json_into(out);
        out.push_str(",\"series\":{");
        for (i, (name, rows)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_str(name, out);
            out.push(':');
            rows.json_into(out);
        }
        out.push_str("}}");
    }
}

/// Format a microsecond value compactly.
pub fn us(v: f64) -> String {
    format!("{v:.2}µs")
}

/// Format a Gb/s value compactly.
pub fn gbps(v: f64) -> String {
    format!("{v:.2}Gbps")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_rows() {
        let mut r = Report::new("figX", "demo");
        r.row("latency", "5.60µs", "5.72µs", true);
        r.row("ratio", "1.05x", "2.0x", false);
        let s = r.render();
        assert!(s.contains("figX"));
        assert!(s.contains("HOLDS"));
        assert!(s.contains("DIFFERS"));
        assert!(!r.all_hold());
    }

    #[test]
    fn json_names_series() {
        let mut r = Report::new("figX", "demo");
        r.row("latency", "1", "1", true);
        r.series("goodput_gbps", vec![(0.0, 10.0), (0.1, 12.0)]);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"series\":{\"goodput_gbps\":[[0.0,10.0],[0.1,12.0]]}"));
        assert!(json.contains("\"all_hold\":true"));
    }

    #[test]
    fn write_into_a_regular_file_fails() {
        let file = std::env::temp_dir().join(format!("xrdma-report-{}", std::process::id()));
        fs::write(&file, "not a directory").unwrap();
        let err = Report::new("figX", "demo").write(&file);
        fs::remove_file(&file).unwrap();
        assert!(err.is_err(), "writing under a regular file must fail");
    }
}
