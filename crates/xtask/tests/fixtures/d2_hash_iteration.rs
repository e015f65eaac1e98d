// Fixture: hash-ordered collections in a results-producing path (D2).
use std::collections::{HashMap, HashSet};

pub struct Tally {
    // Collected into a Vec and sorted before anything observable:
    histogram: HashMap<u64, u64>, // lint: sorted
}

pub fn emit_csv(rows: &HashMap<u64, f64>, seen: &HashSet<u64>) -> String {
    let mut out = String::new();
    for (k, v) in rows {
        if seen.contains(k) {
            out.push_str(&format!("{k},{v}\n"));
        }
    }
    out
}

pub fn sorted_histogram(t: &Tally) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = t.histogram.iter().map(|(&k, &n)| (k, n)).collect();
    v.sort_unstable();
    v
}
