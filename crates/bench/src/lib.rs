//! Shared plumbing for the `bench` binary.
//!
//! Every table and figure of the paper's evaluation has a harness in
//! [`figs`] that regenerates it (see DESIGN.md's experiment index);
//! `bench run [harness…]` runs them in-process: the distinct [`cell`]s of
//! every requested harness once, then each harness's render, which
//! prints its series/rows to its [`Sink`] and hands back the reports
//! saved as CSVs under `results/`. The experiment scale (relative to the
//! paper's 50 GB / 30 min setup) is controlled by the `DUET_SCALE`
//! environment variable; larger values run faster at lower fidelity.
//! `DUET_JOBS` bounds the worker threads used by [`pool`] to fan the
//! cells out across cores (results are byte-identical at any width; see
//! DESIGN.md §8).

use sim_core::knobs::Knob;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Reads the scale factor from `DUET_SCALE`, with a per-harness default.
pub fn scale_from_env(default: u64) -> u64 {
    knob(Knob::Scale).unwrap_or(default)
}

/// A knob's value, `None` when unset.
///
/// # Panics
///
/// On a malformed value. Entry points rule that out up front with
/// [`check_env`]; anywhere else a panic beats a silent default.
#[expect(
    clippy::panic,
    reason = "a malformed knob fails loudly; `check_env` rules it out first"
)]
pub(crate) fn knob(knob: Knob) -> Option<u64> {
    knob.read().unwrap_or_else(|e| panic!("{e}"))
}

/// Start-up check of the `bench` binary: any malformed knob of
/// `sim_core::knobs`, the two replay seeds included, is reported on
/// stderr, naming the variable and the value, and becomes exit status 2
/// — before any work is done, never a silent default.
pub fn check_env() -> Result<(), ExitCode> {
    sim_core::knobs::check_all().map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// Errors a harness can produce.
#[derive(Debug)]
pub enum BenchError {
    /// A simulation/experiment error.
    Sim(sim_core::SimError),
    /// Writing results failed.
    Io(std::io::Error),
    /// `bench run` was asked for a harness that does not exist.
    UnknownHarness(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Sim(e) => write!(f, "experiment failed: {e}"),
            BenchError::Io(e) => write!(f, "writing results failed: {e}"),
            BenchError::UnknownHarness(name) => write!(f, "unknown harness: {name}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<sim_core::SimError> for BenchError {
    fn from(e: sim_core::SimError) -> Self {
        BenchError::Sim(e)
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

/// Result alias for harness code.
pub type BenchResult<T> = Result<T, BenchError>;

/// Console output sink. `bench run` renders one harness at a time, after
/// every cell has run, into a live sink; a buffered one collects the
/// lines instead.
#[derive(Debug)]
pub struct Sink {
    out: SinkOut,
}

#[derive(Debug)]
enum SinkOut {
    /// Print lines to stdout immediately.
    Live,
    /// Collect lines for later, ordered printing.
    Buffer(Vec<String>),
}

impl Sink {
    /// A sink that prints immediately.
    pub fn live() -> Sink {
        Sink { out: SinkOut::Live }
    }

    /// A sink that collects lines.
    pub fn buffer() -> Sink {
        Sink {
            out: SinkOut::Buffer(Vec::new()),
        }
    }

    /// Emits one line.
    pub fn line<S: Into<String>>(&mut self, s: S) {
        match &mut self.out {
            SinkOut::Live => println!("{}", s.into()),
            SinkOut::Buffer(lines) => lines.push(s.into()),
        }
    }

    /// The collected lines (empty for a live sink).
    pub fn lines(&self) -> &[String] {
        match &self.out {
            SinkOut::Live => &[],
            SinkOut::Buffer(lines) => lines,
        }
    }
}

/// A simple CSV/console sink for experiment output.
pub struct Report {
    name: &'static str,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates a report with the given column names.
    pub fn new(name: &'static str, header: &[&str]) -> Self {
        Report {
            name,
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (and echoes it to the sink).
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the header.
    pub fn row(&mut self, sink: &mut Sink, values: &[String]) {
        assert_eq!(values.len(), self.header.len(), "column count mismatch");
        sink.line(format!("  {}", values.join("\t")));
        self.rows.push(values.to_vec());
    }

    /// Emits the header line.
    pub fn print_header(&self, sink: &mut Sink) {
        sink.line(format!("== {} ==", self.name));
        sink.line(format!("  {}", self.header.join("\t")));
    }

    /// The collected rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Writes the collected rows to `<dir>/<name>.csv`.
    pub fn save(&self, dir: &Path, sink: &mut Sink) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.header.join(","))?;
        for r in &self.rows {
            writeln!(f, "{}", r.join(","))?;
        }
        sink.line(format!("[saved {}]", path.display()));
        Ok(path)
    }
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_applies() {
        // `scale_from_env` is `Knob::Scale` read from the environment,
        // else the default; drive the parse with explicit values.
        assert_eq!(Knob::Scale.parse(None).unwrap().unwrap_or(32), 32);
        assert_eq!(Knob::Scale.parse(Some("512")).unwrap().unwrap_or(32), 512);
        assert!(Knob::Scale.parse(Some("+512")).is_err());
    }

    #[test]
    fn report_roundtrip() {
        let mut sink = Sink::buffer();
        let mut r = Report::new("unit_test_report", &["a", "b"]);
        r.print_header(&mut sink);
        r.row(&mut sink, &["1".into(), "2".into()]);
        assert_eq!(r.rows().len(), 1);
        assert_eq!(
            sink.lines(),
            [
                "== unit_test_report ==".to_string(),
                "  a\tb".to_string(),
                "  1\t2".to_string(),
            ]
        );
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(f2(1.234), "1.23");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn report_checks_columns() {
        let mut r = Report::new("bad", &["a", "b"]);
        r.row(&mut Sink::buffer(), &["only one".into()]);
    }

    #[test]
    fn bench_error_formats() {
        let e = BenchError::from(sim_core::SimError::NoSpace);
        assert!(e.to_string().contains("no space"));
        let u = BenchError::UnknownHarness("nope".into());
        assert!(u.to_string().contains("nope"));
    }
}

pub mod cell;
pub mod figs;
pub mod harness;
pub mod pool;
pub mod suite;
pub mod synthfs;
pub mod trace;
