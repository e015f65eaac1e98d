//! Opt-in trace aggregation for the figure harnesses.
//!
//! Setting `DUET_TRACE=1` makes [`crate::cell::Batch`] arm a fresh trace
//! handle per distinct cell; each report's per-layer/per-kind counters
//! are the keyed sum over the cells that name it, saved as
//! `results/<report>_trace.csv` next to the figure's CSV. A sum does not
//! depend on the order it is taken in, so the file is byte-identical at
//! any `DUET_JOBS` width and whether a cell was shared or not (see
//! DESIGN.md §8).
//!
//! With `DUET_TRACE` unset the harnesses write no `_trace.csv`; their
//! own CSVs read the same either way.

use crate::Sink;
use sim_core::knobs::Knob;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Whether trace aggregation was requested (`DUET_TRACE=1`; see
/// `sim_core::knobs` — anything but `0`/`1` is rejected at start-up).
pub fn enabled() -> bool {
    crate::knob(Knob::Trace) == Some(1)
}

/// Deterministic union of per-cell counters, keyed `layer.kind`.
#[derive(Debug, Default)]
pub struct TraceAgg {
    counters: BTreeMap<String, u64>,
}

impl TraceAgg {
    /// Folds one cell's counters in.
    pub fn merge(&mut self, counters: &[(String, u64)]) {
        for (k, n) in counters {
            *self.counters.entry(k.clone()).or_insert(0) += n;
        }
    }

    /// The merged rows, in key order.
    pub fn rows(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &n)| (k.as_str(), n))
    }

    /// Writes `<dir>/<name>_trace.csv`, announcing the path on the sink
    /// like [`crate::Report::save`] does.
    pub fn save(&self, dir: &Path, name: &str, sink: &mut Sink) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}_trace.csv"));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "counter,count")?;
        for (k, n) in self.rows() {
            writeln!(f, "{k},{n}")?;
        }
        sink.line(format!("[saved {}]", path.display()));
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_a_keyed_sum() {
        let mut agg = TraceAgg::default();
        agg.merge(&[("disk/read".into(), 2), ("cache/hit".into(), 5)]);
        agg.merge(&[("disk/read".into(), 3)]);
        let rows: Vec<(String, u64)> = agg.rows().map(|(k, n)| (k.to_string(), n)).collect();
        assert_eq!(
            rows,
            vec![
                ("cache/hit".to_string(), 5),
                ("disk/read".to_string(), 3 + 2)
            ]
        );
    }
}
