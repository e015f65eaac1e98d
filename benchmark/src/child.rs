//! What one cold child process does: set up, make the one timed call
//! into the simulator, and report. The parent (`runner.rs`) spawns one
//! child per (workload, round) so every sample starts from a fresh
//! heap, an empty snapshot store and an empty profile memo — the state
//! a user's run starts from.
//!
//! A child prints exactly one line on stdout: its report, as JSON.

use crate::json::Json;
use crate::mirror::{self, BtrfsRun, ForegroundStats, GcRun};
use crate::procfs;
use crate::spans::{NameTotals, Recorder};
use crate::workloads::{Input, Workload};
use bench::harness::Stopwatch;
use duet::DuetStats;
use duet_tasks::{pump_btrfs, pump_f2fs, TaskMetrics};
use experiments::snapshot::obtain;
use experiments::{run_experiment, run_gc_experiment, ExperimentResult, GcResult};
use sim_cache::CacheStats;
use sim_disk::DiskMetrics;
use std::path::Path;

/// What a child is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set up cold, time the entry point: the end-to-end sample.
    E2e,
    /// The same, then the traced mirror of the same run, then the
    /// entry point again, warm, to hold the mirror against.
    Traced,
    /// The layer kernels (no workload involved).
    Kernels,
}

impl Mode {
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::E2e => "e2e",
            Mode::Traced => "traced",
            Mode::Kernels => "kernels",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::E2e, Mode::Traced, Mode::Kernels]
            .into_iter()
            .find(|m| m.as_str() == s)
    }
}

fn secs(ns: u128) -> f64 {
    ns as f64 / 1e9
}

/// One timed call: host seconds, CPU seconds of all threads, result.
struct Timed<R> {
    wall_s: f64,
    cpu_s: f64,
    result: R,
}

fn timed<R>(f: impl FnOnce() -> R) -> Result<Timed<R>, String> {
    let cpu = || procfs::cpu_seconds().ok_or("cannot read /proc/self/stat");
    let cpu0 = cpu()?;
    let sw = Stopwatch::start();
    let result = f();
    let wall_s = secs(sw.elapsed_ns());
    Ok(Timed {
        wall_s,
        cpu_s: cpu()? - cpu0,
        result,
    })
}

/// Runs one child and returns its report.
pub fn run(
    workload: &Workload,
    seed: u64,
    mode: Mode,
    dump_spans: Option<&Path>,
) -> Result<Json, String> {
    let mut report = Json::obj();
    report.set("workload", workload.name);
    report.set("seed", seed.to_string());
    report.set("mode", mode.as_str());
    if mode == Mode::Kernels {
        let mut kernels = Json::obj();
        for k in crate::kernels::run_all() {
            kernels.set(k.metric, k.value);
        }
        report.set("layers", kernels);
        return Ok(report);
    }
    let sim = |e: sim_core::SimError| format!("{}: simulation failed: {e}", workload.name);
    let traced = mode == Mode::Traced;
    let mut layers = Json::obj();
    let mut checks = Json::obj();
    let dump = |rec: &Recorder| match dump_spans {
        Some(path) => {
            std::fs::write(path, rec.dump_csv()).map_err(|e| format!("{}: {e}", path.display()))
        }
        None => Ok(()),
    };
    match (workload.input)(seed) {
        Input::Btrfs(cfg) => {
            let sw = Stopwatch::start();
            let stack = obtain(&cfg).map_err(sim)?;
            let setup_s = secs(sw.elapsed_ns());
            drop(stack);
            let entry = timed(|| run_experiment(&cfg))?;
            report_timing(&mut report, setup_s, &entry);
            let result = entry.result.map_err(sim)?;
            report.set(
                "units",
                result.foreground_blocks + result.maintenance_blocks,
            );
            let stats = experiment_stats(&result);
            if traced {
                let mut rec = Recorder::new(mirror::NAMES, mirror::SPAN_CAPACITY);
                let run = mirror::run_btrfs(&cfg, &mut rec, pump_btrfs).map_err(sim)?;
                let same = stats == experiment_stats(&run.result);
                checks.set("mirror_equals_entry", same);
                checks.set("fsck_clean", run.fs.check_consistency().is_ok());
                layers.set("experiments.prepare_s", setup_s);
                let totals = rec.aggregate();
                btrfs_layers(&run, &totals, &mut layers);
                let teardown_s = timed_drop(run.fs);
                // The mirror found the heap faulted in; the entry point
                // it is held against must too.
                let warm = timed(|| run_experiment(&cfg))?;
                let again = experiment_stats(&warm.result.map_err(sim)?);
                checks.set("entry_repeats", stats == again);
                let traced_s = total(&totals, "run") + teardown_s;
                finish_trace(traced_s, warm.wall_s, &checks, &mut layers);
                dump(&rec)?;
            }
            report.set("stats", stats);
        }
        Input::Gc(cfg) => {
            let sw = Stopwatch::start();
            let stack = mirror::prepare_gc(&cfg).map_err(sim)?;
            let setup_s = secs(sw.elapsed_ns());
            drop(stack);
            let entry = timed(|| run_gc_experiment(&cfg))?;
            report_timing(&mut report, setup_s, &entry);
            let result = entry.result.map_err(sim)?;
            report.set("units", result.workload_ops);
            let stats = gc_stats(&result);
            if traced {
                let mut rec = Recorder::new(mirror::NAMES, mirror::SPAN_CAPACITY);
                let run = mirror::run_gc(&cfg, &mut rec, pump_f2fs).map_err(sim)?;
                checks.set("mirror_equals_entry", stats == gc_stats(&run.result));
                checks.set("fsck_clean", run.fs.check_consistency().is_ok());
                layers.set("experiments.prepare_s", setup_s);
                let totals = rec.aggregate();
                gc_layers(&run, &totals, &mut layers);
                let teardown_s = timed_drop(run.fs);
                let warm = timed(|| run_gc_experiment(&cfg))?;
                let again = gc_stats(&warm.result.map_err(sim)?);
                checks.set("entry_repeats", stats == again);
                let traced_s = total(&totals, "run") + teardown_s;
                finish_trace(traced_s, warm.wall_s, &checks, &mut layers);
                dump(&rec)?;
            }
            report.set("stats", stats);
        }
        Input::Sweep {
            harness,
            scale,
            shapes,
        } => {
            let spec = bench::figs::find(harness).ok_or(format!("no harness named {harness}"))?;
            // Cold prefix builds, then warm forks of the same prefixes.
            // The sweep's own workers keep per-thread stores, so none of
            // this warms the timed call.
            let sw = Stopwatch::start();
            for shape in &shapes {
                obtain(shape).map_err(sim)?;
            }
            let setup_s = secs(sw.elapsed_ns());
            if traced {
                // The store keeps the four newest prefixes: fork those.
                let warm = &shapes[shapes.len().saturating_sub(4)..];
                let sw = Stopwatch::start();
                for shape in warm {
                    obtain(shape).map_err(sim)?;
                }
                let fork_s = secs(sw.elapsed_ns()) / warm.len() as f64;
                layers.set("experiments.prepare_s", setup_s / shapes.len() as f64);
                layers.set("experiments.fork_s", fork_s);
            }
            let mut sink = bench::Sink::buffer();
            let entry = timed(|| (spec.run)(scale, &mut sink))?;
            report_timing(&mut report, setup_s, &entry);
            entry
                .result
                .map_err(|e| format!("{}: {harness} failed: {e}", workload.name))?;
            let csv = std::fs::read(format!("results/{harness}.csv"))
                .map_err(|e| format!("{}: reading the sweep's CSV: {e}", workload.name))?;
            let cells = csv_cells(&csv);
            report.set("units", cells);
            let mut stats = Json::obj();
            stats.set("cells", cells);
            stats.set("csv_fnv1a64", format!("{:016x}", fnv1a64(&csv)));
            report.set("stats", stats);
        }
    }
    if traced {
        report.set("layers", layers);
        report.set("checks", checks);
    }
    let rss = procfs::peak_rss_mib().ok_or("cannot read /proc/self/status")?;
    report.set("peak_rss_mib", rss);
    Ok(report)
}

fn report_timing<R>(report: &mut Json, setup_s: f64, entry: &Timed<R>) {
    report.set("setup_s", setup_s);
    report.set("wall_s", entry.wall_s);
    report.set("cpu_s", entry.cpu_s);
}

/// Drops `value` and returns the seconds that took: the teardown an
/// entry point pays inside its call, and the mirror outside its spans.
fn timed_drop<T>(value: T) -> f64 {
    let sw = Stopwatch::start();
    drop(value);
    secs(sw.elapsed_ns())
}

/// The traced run's verdict and its overhead against an untraced
/// entry-point call made in the same warm process.
fn finish_trace(traced_s: f64, warm_entry_wall_s: f64, checks: &Json, layers: &mut Json) {
    let mirror_ok = checks
        .fields()
        .iter()
        .all(|(_, ok)| *ok == Json::Bool(true));
    layers.set("experiments.mirror_ok", u64::from(mirror_ok));
    layers.set("experiments.traced_total_s", traced_s);
    layers.set(
        "experiments.trace_overhead",
        traced_s / warm_entry_wall_s - 1.0,
    );
}

// ----- simulated statistics: pinned exactly, compared exactly --------------

fn task_key(name: &str) -> &str {
    name.split('(').next().unwrap_or(name)
}

fn set_task_metrics(o: &mut Json, task: &str, m: &TaskMetrics) {
    o.set(&format!("{task}.total_units"), m.total_units);
    o.set(&format!("{task}.done_units"), m.done_units);
    o.set(&format!("{task}.saved_units"), m.saved_units);
    o.set(&format!("{task}.blocks_read"), m.blocks_read);
    o.set(&format!("{task}.blocks_written"), m.blocks_written);
}

/// Every deterministic field of an [`ExperimentResult`].
pub fn experiment_stats(r: &ExperimentResult) -> Json {
    let mut o = Json::obj();
    o.set("workload_ops", r.workload_ops);
    o.set("foreground_blocks", r.foreground_blocks);
    o.set("maintenance_blocks", r.maintenance_blocks);
    o.set("maintenance_busy_ns", r.maintenance_busy.as_nanos());
    o.set("achieved_util", r.achieved_util);
    o.set("latency_mean_ms", r.workload_latency_ms.0);
    o.set("latency_ci95_ms", r.workload_latency_ms.1);
    for t in &r.tasks {
        set_task_metrics(&mut o, &t.name, &t.metrics);
        o.set(&format!("{}.completed", t.name), t.completed);
        let at = t
            .completion_time
            .map_or(Json::Null, |d| d.as_nanos().into());
        o.set(&format!("{}.completion_ns", t.name), at);
    }
    if let Some(d) = r.duet_stats {
        o.set("duet.events_processed", d.events_processed);
        o.set("duet.events_dropped", d.events_dropped);
        o.set("duet.fetch_calls", d.fetch_calls);
        o.set("duet.items_fetched", d.items_fetched);
        o.set("duet.peak_descriptors", d.peak_descriptors);
    }
    o.set("duet.peak_memory_bytes", r.duet_peak_memory);
    o
}

/// Every deterministic field of a [`GcResult`].
pub fn gc_stats(r: &GcResult) -> Json {
    let mut o = Json::obj();
    o.set("workload_ops", r.workload_ops);
    o.set("cleanings", r.cleanings);
    o.set("mean_cleaning_ms", r.mean_cleaning_ms);
    o.set("mean_cached", r.mean_cached);
    o.set("mean_valid", r.mean_valid);
    o.set("ended_in_ssr", r.ended_in_ssr);
    o.set("achieved_util", r.achieved_util);
    o.set("latency_mean_ms", r.workload_latency_ms.0);
    o.set("latency_ci95_ms", r.workload_latency_ms.1);
    o
}

/// 64-bit FNV-1a.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Cells of a sweep CSV: every field but the header row and the label
/// column.
fn csv_cells(csv: &[u8]) -> u64 {
    String::from_utf8_lossy(csv)
        .lines()
        .skip(1)
        .map(|row| row.split(',').count().saturating_sub(1) as u64)
        .sum()
}

// ----- per-layer values of a traced run -------------------------------------

fn find<'a>(totals: &'a [NameTotals], name: &str) -> &'a NameTotals {
    totals
        .iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("span name {name} is not in the table"))
}

fn total(totals: &[NameTotals], name: &str) -> f64 {
    find(totals, name).total_s()
}

/// `<metric>_s` and `<metric>_n` of one span name.
fn set_span(out: &mut Json, metric: &str, t: &NameTotals) {
    out.set(&format!("{metric}_s"), t.total_s());
    out.set(&format!("{metric}_n"), t.calls);
}

/// Values every traced run has: the loop, the pump, the workload and
/// the filesystem calls beneath it (`fs` is `sim-btrfs` or `sim-f2fs`).
fn common_layers(
    out: &mut Json,
    totals: &[NameTotals],
    fs: &str,
    foreground: &ForegroundStats,
    cache: CacheStats,
    disk: &DiskMetrics,
    duet: Option<DuetStats>,
) {
    out.set("experiments.loop_self_s", find(totals, "run").self_s());
    out.set("experiments.fork_s", total(totals, "fork"));
    let pump = find(totals, "pump");
    set_span(out, "duet.pump", pump);
    let run_op = find(totals, "run_op");
    set_span(out, "workloads.run_op", run_op);
    out.set("workloads.self_s", run_op.self_s());
    for call in [
        "wl_read",
        "wl_write",
        "wl_append",
        "wl_delete",
        "wl_create",
        "writeback",
    ] {
        set_span(out, &format!("{fs}.{call}"), find(totals, call));
    }
    let w = foreground.stats;
    out.set("workloads.ops", w.ops);
    out.set("workloads.bytes_read", w.bytes_read);
    out.set("workloads.bytes_written", w.bytes_written);
    out.set("workloads.files_replaced", w.files_replaced);
    out.set("workloads.virt_latency_ms", foreground.mean_latency_ms);

    out.set("sim-cache.hits", cache.hits);
    out.set("sim-cache.misses", cache.misses);
    out.set("sim-cache.insertions", cache.insertions);
    out.set("sim-cache.evictions", cache.evictions);
    out.set("sim-cache.writebacks", cache.writebacks);
    let lookups = cache.hits + cache.misses;
    if lookups > 0 {
        out.set("sim-cache.hit_ratio", cache.hits as f64 / lookups as f64);
    }

    out.set("sim-disk.fg_requests", disk.normal.ops());
    out.set("sim-disk.maint_requests", disk.idle.ops());
    out.set("sim-disk.fg_blocks", disk.normal.blocks());
    out.set("sim-disk.maint_blocks", disk.idle.blocks());
    out.set(
        "sim-disk.fg_busy_virt_s",
        disk.normal.busy_time.as_secs_f64(),
    );
    out.set(
        "sim-disk.maint_busy_virt_s",
        disk.idle.busy_time.as_secs_f64(),
    );

    if let Some(d) = duet {
        out.set("duet.events_processed", d.events_processed);
        out.set("duet.events_dropped", d.events_dropped);
        out.set("duet.fetch_calls", d.fetch_calls);
        out.set("duet.items_fetched", d.items_fetched);
        out.set("duet.peak_descriptors", d.peak_descriptors);
        if d.events_processed > 0 {
            let events = d.events_processed as f64;
            out.set("duet.ns_per_event", pump.total_s() * 1e9 / events);
            out.set("duet.merge_ratio", d.items_fetched as f64 / events);
        }
    }
}

/// Counter deltas over the measured window.
fn cache_delta(end: CacheStats, start: CacheStats) -> CacheStats {
    CacheStats {
        hits: end.hits - start.hits,
        misses: end.misses - start.misses,
        insertions: end.insertions - start.insertions,
        evictions: end.evictions - start.evictions,
        writebacks: end.writebacks - start.writebacks,
    }
}

fn btrfs_layers(run: &BtrfsRun, totals: &[NameTotals], out: &mut Json) {
    let r = &run.result;
    common_layers(
        out,
        totals,
        "sim-btrfs",
        &run.foreground,
        cache_delta(run.fs.cache().stats(), run.cache_at_start),
        run.fs.disk().metrics(),
        r.duet_stats,
    );
    out.set("sim-btrfs.allocated_blocks", run.fs.allocated_blocks());
    out.set(
        "sim-btrfs.mean_extents_per_file",
        run.fs.mean_extents_per_file(),
    );
    out.set("duet.peak_memory_bytes", r.duet_peak_memory);
    let mut start_s = 0.0;
    for t in &r.tasks {
        let task = task_key(&t.name);
        let span = |phase: &str| find(totals, &format!("{task}.{phase}"));
        start_s += span("start").total_s();
        set_span(out, &format!("duet-tasks.{task}.step"), span("step"));
        set_span(out, &format!("duet-tasks.{task}.poll"), span("poll"));
        let m = &t.metrics;
        out.set(&format!("duet-tasks.{task}.done_units"), m.done_units);
        out.set(&format!("duet-tasks.{task}.saved_units"), m.saved_units);
        out.set(&format!("duet-tasks.{task}.blocks_read"), m.blocks_read);
        out.set(
            &format!("duet-tasks.{task}.blocks_written"),
            m.blocks_written,
        );
    }
    out.set("duet-tasks.start_s", start_s);
    out.set("duet-tasks.io_saved", r.io_saved());
    out.set("duet-tasks.work_completed", r.work_completed());
}

fn gc_layers(run: &GcRun, totals: &[NameTotals], out: &mut Json) {
    let r = &run.result;
    common_layers(
        out,
        totals,
        "sim-f2fs",
        &run.foreground,
        cache_delta(run.fs.cache().stats(), run.cache_at_start),
        run.fs.disk().metrics(),
        Some(run.duet_stats),
    );
    out.set("sim-f2fs.free_segments", u64::from(run.fs.free_segments()));
    out.set("sim-f2fs.ended_in_ssr", u64::from(r.ended_in_ssr));
    set_span(out, "duet-tasks.gc.step", find(totals, "gc.step"));
    out.set("duet-tasks.start_s", total(totals, "gc.start"));
    out.set("duet-tasks.gc.cleanings", r.cleanings);
    out.set("duet-tasks.gc.mean_cached", r.mean_cached);
    out.set("duet-tasks.gc.cleaning_virt_ms", r.mean_cleaning_ms);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_digest_and_cell_count() {
        // FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let csv = b"workload,scrub_base,scrub_duet\nweb,50.0%,70.0%\nproxy,never,10.0%\n";
        assert_eq!(csv_cells(csv), 4);
        assert_eq!(csv_cells(b"header,only\n"), 0);
    }

    #[test]
    fn modes_round_trip_and_task_keys_drop_the_mode_suffix() {
        for m in [Mode::E2e, Mode::Traced, Mode::Kernels] {
            assert_eq!(Mode::parse(m.as_str()), Some(m));
        }
        assert_eq!(Mode::parse("E2E"), None);
        assert_eq!(task_key("scrub(duet)"), "scrub");
        assert_eq!(task_key("defrag(baseline)"), "defrag");
    }
}
