//! The metric dictionary: every name the benchmark prints, with its
//! unit and direction, and the regression bound of each end-to-end one.
//! `BENCHMARK.json` at the repository root is rendered from this table
//! (`duetbench manifest`) and a test keeps the two identical.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the simulator would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Differences smaller than this are never a regression of a metric
/// measured in seconds, whatever the relative bound says.
pub const TIMING_FLOOR_S: f64 = 0.05;

/// Seconds of measurement per invocation (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "units_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric of one layer, from the traced run, the layer kernels or the
/// simulation's own counters. No bound: these explain, they do not
/// gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// `<crate>.<metric>`: `_s` is host seconds from the traced run, `_n`
/// calls, `k_*` a layer kernel, a bare name a deterministic counter of
/// the simulation. A metric that does not apply to a workload (an F2fs
/// span on a Btrfs workload, any span on `sweep_table5`) reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    lower("experiments.traced_total_s", "s"),
    lower("experiments.loop_self_s", "s"),
    lower("experiments.prepare_s", "s"),
    lower("experiments.fork_s", "s"),
    lower("experiments.trace_overhead", "ratio"),
    higher("experiments.mirror_ok", "bool"),
    higher("bench.pool_parallelism", "ratio"),
    lower("workloads.run_op_s", "s"),
    lower("workloads.run_op_n", "count"),
    lower("workloads.self_s", "s"),
    higher("workloads.ops", "count"),
    higher("workloads.bytes_read", "B"),
    higher("workloads.bytes_written", "B"),
    higher("workloads.files_replaced", "count"),
    lower("workloads.virt_latency_ms", "ms"),
    lower("sim-btrfs.wl_read_s", "s"),
    lower("sim-btrfs.wl_read_n", "count"),
    lower("sim-btrfs.wl_write_s", "s"),
    lower("sim-btrfs.wl_write_n", "count"),
    lower("sim-btrfs.wl_append_s", "s"),
    lower("sim-btrfs.wl_append_n", "count"),
    lower("sim-btrfs.wl_delete_s", "s"),
    lower("sim-btrfs.wl_delete_n", "count"),
    lower("sim-btrfs.wl_create_s", "s"),
    lower("sim-btrfs.wl_create_n", "count"),
    lower("sim-btrfs.writeback_s", "s"),
    lower("sim-btrfs.writeback_n", "count"),
    lower("sim-btrfs.allocated_blocks", "count"),
    lower("sim-btrfs.mean_extents_per_file", "count"),
    lower("sim-btrfs.k_read_miss_ns_page", "ns"),
    lower("sim-btrfs.k_read_hit_ns_page", "ns"),
    lower("sim-btrfs.k_cow_write_ns_page", "ns"),
    lower("sim-btrfs.k_fork_ms", "ms"),
    lower("sim-f2fs.wl_read_s", "s"),
    lower("sim-f2fs.wl_read_n", "count"),
    lower("sim-f2fs.wl_write_s", "s"),
    lower("sim-f2fs.wl_write_n", "count"),
    lower("sim-f2fs.wl_append_s", "s"),
    lower("sim-f2fs.wl_append_n", "count"),
    lower("sim-f2fs.wl_delete_s", "s"),
    lower("sim-f2fs.wl_delete_n", "count"),
    lower("sim-f2fs.wl_create_s", "s"),
    lower("sim-f2fs.wl_create_n", "count"),
    lower("sim-f2fs.writeback_s", "s"),
    lower("sim-f2fs.writeback_n", "count"),
    higher("sim-f2fs.free_segments", "count"),
    lower("sim-f2fs.ended_in_ssr", "bool"),
    lower("sim-f2fs.k_write_ns_page", "ns"),
    lower("sim-f2fs.k_clean_segment_us", "us"),
    higher("sim-cache.hits", "count"),
    lower("sim-cache.misses", "count"),
    lower("sim-cache.insertions", "count"),
    lower("sim-cache.evictions", "count"),
    lower("sim-cache.writebacks", "count"),
    higher("sim-cache.hit_ratio", "ratio"),
    lower("sim-cache.k_insert_evict_ns", "ns"),
    lower("sim-cache.k_lookup_hit_ns", "ns"),
    lower("sim-cache.k_dirty_writeback_ns", "ns"),
    lower("sim-cache.est_s", "s"),
    lower("sim-disk.fg_requests", "count"),
    lower("sim-disk.maint_requests", "count"),
    lower("sim-disk.fg_blocks", "count"),
    lower("sim-disk.maint_blocks", "count"),
    lower("sim-disk.fg_busy_virt_s", "s"),
    lower("sim-disk.maint_busy_virt_s", "s"),
    lower("sim-disk.k_hdd_rand_ns", "ns"),
    lower("sim-disk.k_hdd_seq_ns", "ns"),
    lower("sim-disk.k_ssd_ns", "ns"),
    lower("sim-disk.est_s", "s"),
    lower("duet.pump_s", "s"),
    lower("duet.pump_n", "count"),
    lower("duet.ns_per_event", "ns"),
    lower("duet.events_processed", "count"),
    lower("duet.events_dropped", "count"),
    lower("duet.fetch_calls", "count"),
    lower("duet.items_fetched", "count"),
    lower("duet.merge_ratio", "ratio"),
    lower("duet.peak_descriptors", "count"),
    lower("duet.peak_memory_bytes", "B"),
    lower("duet.k_event_ns", "ns"),
    lower("duet.k_state_event_ns", "ns"),
    lower("duet.k_fetch_item_ns", "ns"),
    lower("duet.k_done_ns", "ns"),
    lower("duet-tasks.start_s", "s"),
    higher("duet-tasks.io_saved", "ratio"),
    higher("duet-tasks.work_completed", "ratio"),
    lower("duet-tasks.scrub.step_s", "s"),
    lower("duet-tasks.scrub.step_n", "count"),
    lower("duet-tasks.scrub.poll_s", "s"),
    lower("duet-tasks.scrub.poll_n", "count"),
    higher("duet-tasks.scrub.done_units", "count"),
    higher("duet-tasks.scrub.saved_units", "count"),
    lower("duet-tasks.scrub.blocks_read", "count"),
    lower("duet-tasks.scrub.blocks_written", "count"),
    lower("duet-tasks.backup.step_s", "s"),
    lower("duet-tasks.backup.step_n", "count"),
    lower("duet-tasks.backup.poll_s", "s"),
    lower("duet-tasks.backup.poll_n", "count"),
    higher("duet-tasks.backup.done_units", "count"),
    higher("duet-tasks.backup.saved_units", "count"),
    lower("duet-tasks.backup.blocks_read", "count"),
    lower("duet-tasks.backup.blocks_written", "count"),
    lower("duet-tasks.defrag.step_s", "s"),
    lower("duet-tasks.defrag.step_n", "count"),
    lower("duet-tasks.defrag.poll_s", "s"),
    lower("duet-tasks.defrag.poll_n", "count"),
    higher("duet-tasks.defrag.done_units", "count"),
    higher("duet-tasks.defrag.saved_units", "count"),
    lower("duet-tasks.defrag.blocks_read", "count"),
    lower("duet-tasks.defrag.blocks_written", "count"),
    lower("duet-tasks.gc.step_s", "s"),
    lower("duet-tasks.gc.step_n", "count"),
    higher("duet-tasks.gc.cleanings", "count"),
    higher("duet-tasks.gc.mean_cached", "count"),
    lower("duet-tasks.gc.cleaning_virt_ms", "ms"),
    lower("sim-core.k_dmap_ns", "ns"),
    lower("sim-core.k_dset_ns", "ns"),
    lower("sim-core.k_slab_ns", "ns"),
    lower("sim-core.k_omap_ns", "ns"),
    lower("sim-core.k_bitmap_ns", "ns"),
];

/// Renders `BENCHMARK.json`.
pub fn manifest() -> String {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|&s| s.into()).collect());
    let mut doc = Json::obj();
    doc.set("command", strings(&["bash", "benchmark/run.sh"]));
    doc.set("paths", strings(&["benchmark"]));
    doc.set("run_seconds", RUN_SECONDS);
    doc.set(
        "workloads",
        Json::Arr(
            crate::workloads::ALL
                .iter()
                .map(|w| {
                    let mut o = Json::obj();
                    o.set("name", w.name);
                    o.set("why", w.why);
                    o
                })
                .collect(),
        ),
    );
    doc.set(
        "end_to_end",
        Json::Arr(
            END_TO_END
                .iter()
                .map(|m| {
                    let mut o = Json::obj();
                    o.set("name", m.name);
                    o.set("unit", m.unit);
                    o.set("better", m.better.as_str());
                    o.set("bound", m.bound);
                    o
                })
                .collect(),
        ),
    );
    doc.set(
        "per_layer",
        Json::Arr(
            PER_LAYER
                .iter()
                .map(|m| {
                    let mut o = Json::obj();
                    o.set("name", m.name);
                    o.set("unit", m.unit);
                    o.set("better", m.better.as_str());
                    o
                })
                .collect(),
        ),
    );
    doc.render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::is_safe_name;

    #[test]
    fn dictionary_meets_the_benchmark_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()), "{}", PER_LAYER.len());
        assert!((1..=60).contains(&RUN_SECONDS));
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for (i, n) in names.iter().enumerate() {
            assert!(is_safe_name(n) && n.len() <= 64, "{n}");
            assert!(!names[..i].contains(n), "duplicate metric {n}");
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn committed_manifest_is_the_rendered_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `duetbench manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
