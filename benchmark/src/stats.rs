//! Order statistics over the handful of samples a run produces.

use crate::json::Json;

/// Median, extremes, quartiles and count of one metric's samples. No
/// percentile above the median is reported: none has ten samples
/// beyond it at the round counts the benchmark uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let (&min, &max) = (v.first()?, v.last()?);
        let [q1, median, q3] = quartiles(&v);
        Some(Summary {
            median,
            min,
            max,
            q1,
            q3,
            n: v.len(),
        })
    }

    /// Interquartile range as a share of the median — the spread the
    /// benchmark contract bounds.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        let mut o = Json::obj();
        o.set("median", self.median);
        o.set("min", self.min);
        o.set("max", self.max);
        o.set("q1", self.q1);
        o.set("q3", self.q3);
        o.set("n", self.n);
        o.set("unit", unit);
        o
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Summary {
            median: num("median")?,
            min: num("min")?,
            max: num("max")?,
            q1: num("q1")?,
            q3: num("q3")?,
            n: num("n")? as usize,
        })
    }
}

/// The three quartile cut points of sorted, non-empty data, computed as
/// Python's `statistics.quantiles(data, n=4)` does (the "exclusive"
/// method), so a spread computed here equals the one the driver
/// computes. A single sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    if ld == 1 {
        return [sorted[0]; 3];
    }
    let m = ld + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // `i * m - j * 4` can be negative once `j` is clamped.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        assert_eq!(s.spread(), 1.0);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[20.0, 10.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        // statistics.quantiles([1,2,4,8,16,32,64,128,256,512], n=4)
        //   == [3.5, 24.0, 160.0]
        let v: Vec<f64> = (0..10).map(|i| f64::from(1 << i)).collect();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (3.5, 24.0, 160.0));
    }

    #[test]
    fn single_sample_and_empty_input() {
        let s = Summary::of(&[7.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(s.spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[0.1, 0.7, 0.3]).expect("non-empty");
        let j = Json::parse(&s.to_json("s").render()).expect("parse");
        assert_eq!(Summary::from_json(&j), Some(s));
        assert_eq!(j.get("unit"), Some(&Json::Str("s".into())));
    }
}
