//! `duetbench compare A.json B.json`: is B worse than A?
//!
//! Per workload and end-to-end metric, the median's change is held
//! against the metric's bound. One row per workload; no combined score.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, TIMING_FLOOR_S};
use crate::stats::Summary;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Either side's spread exceeds the bound and the two sides' runs
    /// overlap: the data cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`'s median
/// (negative: better).
fn worsening(m: &EndToEnd, a: &Summary, b: &Summary) -> f64 {
    let delta = (b.median - a.median) / a.median.abs();
    match m.better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

pub fn judge(m: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    if m.unit == "s" && (b.median - a.median).abs() < TIMING_FLOOR_S {
        return Verdict::Unchanged;
    }
    let noisy = a.spread() > m.bound || b.spread() > m.bound;
    let overlap = a.min <= b.max && b.min <= a.max;
    let worse = worsening(m, a, b);
    if noisy && overlap {
        Verdict::Unresolved
    } else if worse > m.bound {
        Verdict::Regressed
    } else if worse < -m.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn failed_share(workload: &Json) -> Option<f64> {
    let checks = workload.get("checks")?;
    let attempted = checks.get("attempted")?.as_f64()?;
    Some(checks.get("failed")?.as_f64()? / attempted.max(1.0))
}

/// Prints the comparison; `Ok(true)` when B is no worse than A.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let workloads = |doc: &Json| doc.get("workloads").cloned().unwrap_or(Json::obj());
    let (wa, wb) = (workloads(&a), workloads(&b));
    let mut ok = true;
    for (name, a_w) in wa.fields() {
        let Some(b_w) = wb.get(name) else {
            println!("{name} missing from {}", b_path.display());
            ok = false;
            continue;
        };
        let mut row = name.clone();
        for m in END_TO_END {
            let summary = |w: &Json| {
                w.get("end_to_end")?
                    .get(m.name)
                    .and_then(Summary::from_json)
            };
            let (Some(sa), Some(sb)) = (summary(a_w), summary(b_w)) else {
                return Err(format!("{name}: {} is missing on one side", m.name));
            };
            let v = judge(m, &sa, &sb);
            ok &= v != Verdict::Regressed;
            row.push_str(&format!(
                "  {} {} ({:+.1}% of {} {}, bound {:.0}%)",
                m.name,
                v.as_str(),
                100.0 * (sb.median - sa.median) / sa.median.abs(),
                sa.median,
                m.unit,
                100.0 * m.bound
            ));
        }
        let (fa, fb) = (failed_share(a_w), failed_share(b_w));
        match (fa, fb) {
            (Some(fa), Some(fb)) => {
                if fb > fa {
                    ok = false;
                }
                row.push_str(&format!("  failed_share {fa} -> {fb}"));
            }
            _ => return Err(format!("{name}: checks are missing on one side")),
        }
        println!("{row}");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("known metric")
    }

    fn tight(median: f64) -> Summary {
        Summary::of(&[median * 0.99, median, median * 1.01]).expect("non-empty")
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let wall = metric("wall_s");
        assert_eq!(judge(wall, &tight(10.0), &tight(10.5)), Verdict::Unchanged);
        assert_eq!(judge(wall, &tight(10.0), &tight(13.0)), Verdict::Regressed);
        assert_eq!(judge(wall, &tight(10.0), &tight(7.0)), Verdict::Improved);
        // Higher is better for throughput: the same numbers flip.
        let rate = metric("units_per_s");
        assert_eq!(judge(rate, &tight(1e6), &tight(1.3e6)), Verdict::Improved);
        assert_eq!(judge(rate, &tight(1e6), &tight(0.7e6)), Verdict::Regressed);
    }

    #[test]
    fn noise_is_unresolved_unless_the_runs_separate() {
        let wall = metric("wall_s");
        let noisy = |m: f64| Summary::of(&[m * 0.6, m, m * 1.4]).expect("non-empty");
        // Wide spread, overlapping ranges: cannot tell.
        assert_eq!(judge(wall, &noisy(10.0), &noisy(11.0)), Verdict::Unresolved);
        // Wide spread, but every run of B is slower than every run of A.
        assert_eq!(judge(wall, &noisy(10.0), &noisy(30.0)), Verdict::Regressed);
        assert_eq!(judge(wall, &noisy(30.0), &noisy(10.0)), Verdict::Improved);
    }

    #[test]
    fn a_near_zero_timing_cannot_trip_a_relative_bound() {
        let setup = metric("setup_s");
        // 3× slower, but 20 ms in absolute terms.
        assert_eq!(judge(setup, &tight(0.01), &tight(0.03)), Verdict::Unchanged);
        // The floor is for seconds only.
        let rss = metric("peak_rss_mib");
        assert_eq!(judge(rss, &tight(0.01), &tight(0.03)), Verdict::Regressed);
    }
}
