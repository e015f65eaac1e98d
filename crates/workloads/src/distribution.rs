//! File-access distributions (§6.1.1 and Figure 1 of the paper).
//!
//! Filebench picks files uniformly by default, "which gives it high
//! coverage of the file system". The paper contrasts this with skewed
//! distributions extracted from the Microsoft Production Build Server
//! trace for three storage devices (Figure 1), where a small fraction
//! of the files receives most accesses. The trace itself is not
//! publicly available, so we synthesize Zipf-like distributions shaped
//! to Figure 1 (see [`ms_trace_weights`]); DESIGN.md records the
//! substitution.

use sim_core::rng::{zipf_weights, CdfSampler};
use sim_core::SimRng;

/// Which file-popularity distribution drives the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DistKind {
    /// Filebench's default: uniform over the accessible files.
    Uniform,
    /// Skewed, shaped like one of the paper's three Microsoft trace
    /// devices (0, 1 or 2).
    MsTrace(u8),
}

/// Zipf exponents for the three synthetic "Microsoft trace devices".
///
/// Figure 1 shows three devices of varying skew, all far from uniform;
/// with these exponents the top 10 % of files receive roughly 60–90 %
/// of accesses, bracketing the figure's curves.
const MS_EXPONENTS: [f64; 3] = [1.2, 0.95, 1.5];

/// Access weights for a synthetic Microsoft-trace device.
///
/// # Panics
///
/// Panics if `device > 2`.
pub fn ms_trace_weights(n_files: usize, device: u8) -> Vec<f64> {
    assert!(device <= 2, "the paper extracts three devices");
    zipf_weights(n_files, MS_EXPONENTS[device as usize])
}

/// A file selector: maps RNG draws to indices into the accessible file
/// list.
#[derive(Debug, Clone, PartialEq)]
pub enum FileSelector {
    /// Uniform over `n` files.
    Uniform {
        /// Number of accessible files.
        n: usize,
    },
    /// Weighted by a precomputed CDF. The weights are assigned over a
    /// *shuffled* file order, so popularity is uncorrelated with inode
    /// order.
    Weighted {
        /// CDF sampler over `order.len()` ranks.
        sampler: CdfSampler,
        /// Rank → file index.
        order: Vec<usize>,
    },
}

impl FileSelector {
    /// Builds a selector for `n` accessible files.
    pub fn new(kind: DistKind, n: usize, rng: &mut SimRng) -> Self {
        assert!(n > 0, "no accessible files");
        match kind {
            DistKind::Uniform => FileSelector::Uniform { n },
            DistKind::MsTrace(dev) => {
                let weights = ms_trace_weights(n, dev);
                let mut order: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut order);
                FileSelector::Weighted {
                    sampler: CdfSampler::new(&weights),
                    order,
                }
            }
        }
    }

    /// Draws a file index in `0..n`.
    pub fn pick(&self, rng: &mut SimRng) -> usize {
        match self {
            FileSelector::Uniform { n } => rng.gen_range(0, *n as u64) as usize,
            FileSelector::Weighted { sampler, order } => order[sampler.sample(rng)],
        }
    }

    /// Number of selectable files.
    pub fn len(&self) -> usize {
        match self {
            FileSelector::Uniform { n } => *n,
            FileSelector::Weighted { order, .. } => order.len(),
        }
    }

    /// Returns `true` if no file is selectable (never for a constructed
    /// selector).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Cumulative access share of the most-popular `top_frac` of files —
/// the quantity Figure 1 plots. Weights need not be normalized.
pub fn cdf_at(weights: &[f64], top_frac: f64) -> f64 {
    let mut sorted: Vec<f64> = weights.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let total: f64 = sorted.iter().sum();
    let k = ((sorted.len() as f64 * top_frac).round() as usize).min(sorted.len());
    let top: f64 = sorted[..k].iter().sum();
    if total > 0.0 {
        top / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_devices_are_skewed_unlike_uniform() {
        let n = 10_000;
        for dev in 0..3u8 {
            let w = ms_trace_weights(n, dev);
            let share = cdf_at(&w, 0.1);
            assert!(
                share > 0.55,
                "device {dev}: top 10% of files get {share:.2} of accesses"
            );
        }
        // Uniform: top 10% gets exactly 10%.
        let u = vec![1.0; n];
        assert!((cdf_at(&u, 0.1) - 0.1).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "three devices")]
    fn bad_device_rejected() {
        let _ = ms_trace_weights(10, 3);
    }

    #[test]
    fn uniform_selector_covers_all_files() {
        let mut rng = SimRng::new(1);
        let sel = FileSelector::new(DistKind::Uniform, 50, &mut rng);
        let mut seen = [false; 50];
        for _ in 0..5_000 {
            seen[sel.pick(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform covers the file set");
    }

    #[test]
    fn weighted_selector_is_skewed() {
        let mut rng = SimRng::new(2);
        let sel = FileSelector::new(DistKind::MsTrace(2), 1000, &mut rng);
        let mut counts = vec![0u32; 1000];
        let n = 50_000;
        for _ in 0..n {
            counts[sel.pick(&mut rng)] += 1;
        }
        let mut sorted = counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top100: u32 = sorted[..100].iter().sum();
        assert!(
            top100 as f64 / n as f64 > 0.6,
            "top 10% of files got {:.2}",
            top100 as f64 / n as f64
        );
        assert_eq!(sel.len(), 1000);
        assert!(!sel.is_empty());
    }

    #[test]
    fn weighted_popularity_decoupled_from_index() {
        // The shuffle must prevent the hottest file always being #0.
        let mut hottest = Vec::new();
        for seed in 0..5 {
            let mut rng = SimRng::new(seed);
            let sel = FileSelector::new(DistKind::MsTrace(0), 100, &mut rng);
            let mut counts = vec![0u32; 100];
            for _ in 0..10_000 {
                counts[sel.pick(&mut rng)] += 1;
            }
            let h = counts
                .iter()
                .enumerate()
                .max_by_key(|(_, &c)| c)
                .map(|(i, _)| i)
                .unwrap();
            hottest.push(h);
        }
        hottest.dedup();
        assert!(hottest.len() > 1, "hot file varies with seed: {hottest:?}");
    }
}
