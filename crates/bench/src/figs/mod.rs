//! Harness bodies for every table and figure, callable in-process.
//!
//! Each submodule exposes `run(scale, sink) -> BenchResult<()>`; the
//! [`ALL`] registry is what `bench run [harness…]` selects from and
//! fans out across cores.

use crate::{BenchResult, Sink};

pub mod extras_ablations;
pub mod extras_f2fs_ssr;
pub mod extras_sensitivity;
pub mod fig10_ssd;
pub mod fig1_distributions;
pub mod fig2_scrub_saved;
pub mod fig2b_personalities;
pub mod fig3_backup_saved;
pub mod fig4_rsync_speedup;
pub mod fig5_scrub_backup_saved;
pub mod fig6_scrub_backup_completed;
pub mod fig7_three_tasks_saved;
pub mod fig8_three_tasks_completed;
pub mod fig9_cpu_overhead;
pub mod mem_overhead;
pub mod table5_max_util;
pub mod table6_gc_cleaning;

/// A harness entry point.
pub type Harness = fn(u64, &mut Sink) -> BenchResult<()>;

/// One registered harness.
#[derive(Debug, Clone, Copy)]
pub struct HarnessSpec {
    /// Harness/CSV name.
    pub name: &'static str,
    /// The harness body.
    pub run: Harness,
    /// The scale the harness runs at when `DUET_SCALE` is unset.
    pub default_scale: u64,
    /// Whether the harness *measures wall-clock time* (fig9): its CSV
    /// is a hardware measurement, inherently non-reproducible byte for
    /// byte, and it must run alone — concurrent load would skew it.
    pub wall_clock: bool,
}

const fn spec(name: &'static str, run: Harness, default_scale: u64) -> HarnessSpec {
    HarnessSpec {
        name,
        run,
        default_scale,
        wall_clock: false,
    }
}

/// Every harness, in the canonical `bench run` order.
pub const ALL: &[HarnessSpec] = &[
    spec("fig1_distributions", fig1_distributions::run, 32),
    spec("fig2_scrub_saved", fig2_scrub_saved::run, 32),
    spec("fig2b_personalities", fig2b_personalities::run, 64),
    spec("fig3_backup_saved", fig3_backup_saved::run, 32),
    spec("fig4_rsync_speedup", fig4_rsync_speedup::run, 64),
    spec("fig5_scrub_backup_saved", fig5_scrub_backup_saved::run, 32),
    spec(
        "fig6_scrub_backup_completed",
        fig6_scrub_backup_completed::run,
        32,
    ),
    spec("fig7_three_tasks_saved", fig7_three_tasks_saved::run, 32),
    spec(
        "fig8_three_tasks_completed",
        fig8_three_tasks_completed::run,
        32,
    ),
    HarnessSpec {
        wall_clock: true,
        ..spec("fig9_cpu_overhead", fig9_cpu_overhead::run, 32)
    },
    spec("fig10_ssd", fig10_ssd::run, 32),
    spec("table5_max_util", table5_max_util::run, 64),
    spec("table6_gc_cleaning", table6_gc_cleaning::run, 32),
    spec("mem_overhead", mem_overhead::run, 32),
    spec("extras_sensitivity", extras_sensitivity::run, 32),
    spec("extras_ablations", extras_ablations::run, 64),
    spec("extras_f2fs_ssr", extras_f2fs_ssr::run, 32),
];

/// Looks a harness up by name.
pub fn find(name: &str) -> Option<&'static HarnessSpec> {
    ALL.iter().find(|h| h.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        assert_eq!(ALL.len(), 17);
        let mut names: Vec<&str> = ALL.iter().map(|h| h.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 17, "duplicate harness names");
        assert!(find("fig9_cpu_overhead").is_some_and(|h| h.wall_clock));
        assert!(find("fig2_scrub_saved").is_some_and(|h| !h.wall_clock));
        assert!(find("nope").is_none());
    }

    /// What `bench run <name>` runs at with `DUET_SCALE` unset: 64 for
    /// the four long harnesses, 32 otherwise — the values the former
    /// one-harness binaries hard-coded.
    #[test]
    fn default_scales_are_the_wrappers() {
        let at_64 = [
            "fig2b_personalities",
            "fig4_rsync_speedup",
            "table5_max_util",
            "extras_ablations",
        ];
        for h in ALL {
            let want = if at_64.contains(&h.name) { 64 } else { 32 };
            assert_eq!(h.default_scale, want, "{}", h.name);
        }
    }
}
