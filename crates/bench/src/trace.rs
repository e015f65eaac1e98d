//! Opt-in trace aggregation for the figure harnesses.
//!
//! Setting `DUET_TRACE=1` makes the sweep-cell driver
//! ([`crate::sweeps::run_cells`]) arm a fresh trace handle per cell and
//! merge the per-layer/per-kind counters into a
//! `results/<name>_trace.csv` next to the figure's CSV. The merge
//! happens in cell-index order, which keeps the aggregate
//! byte-identical at any `DUET_JOBS` width (the same argument as for
//! the result grids, see DESIGN.md §8).
//!
//! With `DUET_TRACE` unset the harnesses write no `_trace.csv`; their
//! own CSVs read the same either way.

use crate::Sink;
use sim_core::knobs::Knob;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// Whether trace aggregation was requested (`DUET_TRACE=1`; see
/// `sim_core::knobs` — anything but `0`/`1` is rejected at start-up).
pub fn enabled() -> bool {
    crate::knob(Knob::Trace) == Some(1)
}

/// Deterministic union of per-cell counters, keyed `layer.kind`.
#[derive(Debug, Default)]
pub struct TraceAgg {
    active: bool,
    counters: BTreeMap<String, u64>,
}

impl TraceAgg {
    /// An aggregator; inert (never saves) unless `active`.
    pub fn new(active: bool) -> Self {
        TraceAgg {
            active,
            counters: BTreeMap::new(),
        }
    }

    /// Whether this aggregator collects and saves anything.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Folds one cell's counters in. Call in cell-index order.
    pub fn merge(&mut self, counters: Vec<(String, u64)>) {
        for (k, n) in counters {
            *self.counters.entry(k).or_insert(0) += n;
        }
    }

    /// The merged rows, in key order.
    pub fn rows(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &n)| (k.as_str(), n))
    }

    /// Writes `results/<name>_trace.csv` (when active), announcing the
    /// path on the sink like [`crate::Report::save`] does.
    pub fn save(&self, name: &str, sink: &mut Sink) -> std::io::Result<Option<PathBuf>> {
        if !self.active {
            return Ok(None);
        }
        let dir = PathBuf::from("results");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}_trace.csv"));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "counter,count")?;
        for (k, n) in self.rows() {
            writeln!(f, "{k},{n}")?;
        }
        sink.line(format!("[saved {}]", path.display()));
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_a_keyed_sum() {
        let mut agg = TraceAgg::new(true);
        agg.merge(vec![("disk/read".into(), 2), ("cache/hit".into(), 5)]);
        agg.merge(vec![("disk/read".into(), 3)]);
        let rows: Vec<(String, u64)> = agg.rows().map(|(k, n)| (k.to_string(), n)).collect();
        assert_eq!(
            rows,
            vec![
                ("cache/hit".to_string(), 5),
                ("disk/read".to_string(), 3 + 2)
            ]
        );
    }

    #[test]
    fn inactive_aggregator_never_saves() {
        let agg = TraceAgg::new(false);
        let mut sink = Sink::buffer();
        let saved = agg.save("unit_test_trace", &mut sink).expect("io");
        assert!(saved.is_none());
        assert!(sink.lines().is_empty());
    }
}
