//! Every table and figure of the evaluation as a harness: the
//! [`Cell`]s it reads plus a render from their results to its reports
//! (fig1 and fig9 read none; their render is the whole body). [`ALL`] is
//! what `bench run [harness…]` selects from, and [`crate::suite`] runs
//! them.

use crate::cell::{Cell, Ran};
use crate::suite::solo;
use crate::{BenchResult, Report, Sink};

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

/// One registered harness.
#[derive(Debug, Clone, Copy)]
pub struct HarnessSpec {
    /// Harness/CSV name.
    pub name: &'static str,
    /// Runs the harness alone: a batch of its cells, rendered into the
    /// sink, its CSVs saved under `results/`.
    pub run: fn(u64, &mut Sink) -> BenchResult<()>,
    /// The cells it reads at a scale.
    pub cells: fn(u64) -> Vec<Cell>,
    /// Its render: from its cells' results, in its cell order, to the
    /// reports it saves.
    pub render: fn(u64, &[&Ran], &mut Sink) -> BenchResult<Vec<Report>>,
    /// The scale the harness runs at when `DUET_SCALE` is unset.
    pub default_scale: u64,
    /// Whether the harness *measures wall-clock time* (fig9): its CSV
    /// is a hardware measurement, inherently non-reproducible byte for
    /// byte, and it must run alone — concurrent load would skew it.
    pub wall_clock: bool,
}

/// The registry entry of the harness in module `$m`, named after it; a
/// harness that simulates nothing has no `cells`.
macro_rules! harness {
    ($m:ident, $default_scale:expr) => {
        HarnessSpec {
            cells: $m::cells,
            ..harness!($m, $default_scale, plain)
        }
    };
    ($m:ident, $default_scale:expr, plain) => {
        HarnessSpec {
            name: stringify!($m),
            run: |scale, sink| solo(stringify!($m), scale, sink),
            cells: |_| Vec::new(),
            render: $m::render,
            default_scale: $default_scale,
            wall_clock: false,
        }
    };
}

/// Every harness, in the canonical `bench run` order.
pub const ALL: &[HarnessSpec] = &[
    harness!(fig1_distributions, 32, plain),
    harness!(fig2_scrub_saved, 32),
    harness!(fig2b_personalities, 64),
    harness!(fig3_backup_saved, 32),
    harness!(fig4_rsync_speedup, 64),
    harness!(fig5_scrub_backup_saved, 32),
    harness!(fig6_scrub_backup_completed, 32),
    harness!(fig7_three_tasks_saved, 32),
    harness!(fig8_three_tasks_completed, 32),
    HarnessSpec {
        wall_clock: true,
        ..harness!(fig9_cpu_overhead, 32, plain)
    },
    harness!(fig10_ssd, 32),
    harness!(table5_max_util, 64),
    harness!(table6_gc_cleaning, 32),
    harness!(mem_overhead, 32),
    harness!(extras_sensitivity, 32),
    harness!(extras_ablations, 64),
    harness!(extras_f2fs_ssr, 32),
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

    /// fig1 and fig9 read no cells; every other harness simulates.
    #[test]
    fn only_fig1_and_fig9_read_no_cells() {
        for h in ALL {
            let plain = ["fig1_distributions", "fig9_cpu_overhead"].contains(&h.name);
            assert_eq!((h.cells)(512).is_empty(), plain, "{}", h.name);
        }
    }
}
