//! Filebench workload personalities (§6.1.1 of the paper).
//!
//! Three personalities drive the evaluation:
//!
//! - **webserver** — "a read-mostly workload with a 10:1 read-write
//!   ratio, with all write operations appending data to a single log
//!   file";
//! - **webproxy** — "more read-heavy, with read-write ratio of 4:1";
//!   its writes "mainly append data to files" but it also deletes and
//!   re-creates files, which breaks snapshot sharing (§6.2);
//! - **fileserver** — "a write-heavy workload, with a read-write ratio
//!   of 1:2"; it overwrites and deletes existing blocks, which is why
//!   it is the workload used for the F2fs GC experiments (§6.2).
//!
//! Each personality is described as a categorical mix over abstract
//! operations; the probabilities are chosen so the *byte* read:write
//! ratios match the paper's figures given the default mean file size.

use sim_core::SimRng;

/// The Filebench personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Personality {
    /// Read-mostly, 10:1, appends to one log file.
    WebServer,
    /// Read-heavy, 4:1, appends plus file replacement.
    WebProxy,
    /// Write-heavy, 1:2, whole-file overwrites, appends and replaces.
    FileServer,
}

/// One abstract workload operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Read a whole file.
    ReadWholeFile,
    /// Append a chunk to the shared log file.
    AppendLog,
    /// Append a chunk to a data file.
    AppendFile,
    /// Overwrite a random aligned region of a file.
    OverwriteRegion,
    /// Overwrite a file completely.
    OverwriteWholeFile,
    /// Delete a file and re-create it at the same size.
    ReplaceFile,
}

impl Personality {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Personality::WebServer => "webserver",
            Personality::WebProxy => "webproxy",
            Personality::FileServer => "fileserver",
        }
    }

    /// The paper's nominal read:write ratio, as (reads, writes).
    pub fn read_write_ratio(self) -> (u32, u32) {
        match self {
            Personality::WebServer => (10, 1),
            Personality::WebProxy => (4, 1),
            Personality::FileServer => (1, 2),
        }
    }

    /// Operation mix calibrated so the *byte-level* read:write ratio
    /// matches [`Personality::read_write_ratio`] for the given mean
    /// file size `s` and append chunk `a` (both in bytes).
    ///
    /// The mix shapes are fixed per personality (what kinds of writes
    /// occur); only the read/write balance is solved from the byte
    /// equation.
    pub fn mix_for(self, s: f64, a: f64) -> Vec<(WorkloadOp, f64)> {
        assert!(s > 0.0 && a > 0.0, "sizes must be positive");
        match self {
            // read p_r·s vs write p_a·a, target 10:1.
            Personality::WebServer => {
                let r = 10.0;
                // p_a = p_r·s/(r·a); normalize p_r + p_a = 1.
                let pr = 1.0 / (1.0 + s / (r * a));
                vec![
                    (WorkloadOp::ReadWholeFile, pr),
                    (WorkloadOp::AppendLog, 1.0 - pr),
                ]
            }
            // Fixed 10 % small appends; solve the replace probability
            // for a 4:1 byte ratio. Replacement (delete + re-create)
            // is what breaks snapshot sharing (§6.2).
            Personality::WebProxy => {
                let r = 4.0;
                let pa = 0.10;
                let prep = ((1.0 - pa) - r * pa * a / s) / (r + 1.0);
                let prep = prep.clamp(0.02, 0.5);
                vec![
                    (WorkloadOp::ReadWholeFile, 1.0 - pa - prep),
                    (WorkloadOp::ReplaceFile, prep),
                    (WorkloadOp::AppendFile, pa),
                ]
            }
            // Write-heavy: overwrites (whole and half-file), replaces
            // and small appends; solve the read probability for 1:2.
            Personality::FileServer => {
                let target = 0.5; // read bytes / write bytes
                let pa = 0.04;
                // Write-op shares (of the non-read, non-append mass)
                // and their byte factors relative to s.
                let shares = [
                    (WorkloadOp::OverwriteWholeFile, 0.3333, 1.0),
                    (WorkloadOp::OverwriteRegion, 0.4243, 0.5),
                    (WorkloadOp::ReplaceFile, 0.2424, 1.0),
                ];
                let ebpw: f64 = shares.iter().map(|(_, sh, f)| sh * f).sum();
                // p_r·s = target·[(1-p_r-pa)·ebpw·s + pa·a]
                let pr = (target * ebpw * (1.0 - pa) + target * pa * a / s) / (1.0 + target * ebpw);
                let pw = 1.0 - pr - pa;
                let mut mix = vec![(WorkloadOp::ReadWholeFile, pr)];
                for (op, sh, _) in shares {
                    mix.push((op, pw * sh));
                }
                mix.push((WorkloadOp::AppendFile, pa));
                mix
            }
        }
    }

    /// Draws one operation from a mix produced by
    /// [`Personality::mix_for`].
    pub fn draw_from_mix(mix: &[(WorkloadOp, f64)], rng: &mut SimRng) -> WorkloadOp {
        let total: f64 = mix.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen_f64() * total;
        for &(op, w) in mix {
            if x < w {
                return op;
            }
            x -= w;
        }
        match mix.last() {
            Some(&(op, _)) => op,
            None => WorkloadOp::ReadWholeFile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn implied_ratio(p: Personality, s: f64, a: f64) -> f64 {
        let mut r = 0.0;
        let mut w = 0.0;
        for &(op, prob) in &p.mix_for(s, a) {
            match op {
                WorkloadOp::ReadWholeFile => r += prob * s,
                WorkloadOp::AppendLog | WorkloadOp::AppendFile => w += prob * a,
                WorkloadOp::OverwriteWholeFile | WorkloadOp::ReplaceFile => w += prob * s,
                WorkloadOp::OverwriteRegion => w += prob * s * 0.5,
            }
        }
        r / w
    }

    #[test]
    fn mixes_are_normalized() {
        for p in [
            Personality::WebServer,
            Personality::WebProxy,
            Personality::FileServer,
        ] {
            let total: f64 = p.mix_for(131072.0, 16384.0).iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-9, "{}: {total}", p.name());
        }
    }

    #[test]
    fn draw_follows_mix() {
        let mut rng = SimRng::new(3);
        let mix = Personality::WebServer.mix_for(131072.0, 16384.0);
        let pr = mix[0].1;
        let mut reads = 0u32;
        let n = 100_000;
        for _ in 0..n {
            if Personality::draw_from_mix(&mix, &mut rng) == WorkloadOp::ReadWholeFile {
                reads += 1;
            }
        }
        let frac = reads as f64 / n as f64;
        assert!((frac - pr).abs() < 0.01, "read fraction {frac} vs {pr}");
    }

    #[test]
    fn byte_ratios_match_paper_across_file_sizes() {
        for s in [64.0 * 1024.0, 128.0 * 1024.0, 512.0 * 1024.0] {
            let a = 16.0 * 1024.0;
            let web = implied_ratio(Personality::WebServer, s, a);
            assert!((9.0..11.0).contains(&web), "webserver {web} at s={s}");
            let proxy = implied_ratio(Personality::WebProxy, s, a);
            assert!((3.4..4.6).contains(&proxy), "webproxy {proxy} at s={s}");
            let file = implied_ratio(Personality::FileServer, s, a);
            assert!((0.4..0.6).contains(&file), "fileserver {file} at s={s}");
        }
    }

    #[test]
    fn names_and_ratios() {
        assert_eq!(Personality::WebServer.name(), "webserver");
        assert_eq!(Personality::FileServer.read_write_ratio(), (1, 2));
    }
}
