//! Figure 9: CPU overhead of Duet (§6.4).
//!
//! The paper registers a file task on the filesystem root, generates
//! roughly 12 page events/ms with an unthrottled webserver, and
//! measures the CPU lost to Duet bookkeeping while the task either
//! stays idle or fetches every 10/20/40 ms. Reported overhead is
//! 0.5–1.5 %, with state-based notifications slightly cheaper (events
//! merge) and fetch frequency mostly irrelevant.
//!
//! We measure the same code paths directly: wall-clock nanoseconds per
//! event through `handle_page_event` + periodic `fetch`, then express
//! them as the CPU share a 12 events/ms stream would consume.
//!
//! This is the one *wall-clock* harness (`HarnessSpec::wall_clock`):
//! its CSV is a hardware measurement, so `bench run` runs it alone,
//! after the parallel batch, and excludes it from byte-identity claims.

use crate::harness::Stopwatch;
use crate::synthfs::{drain, SynthEvents, SynthFs, SYNTH_ROOT};
use crate::{f2, BenchResult, Report, Sink};
use duet::{Duet, DuetConfig, EventMask, TaskScope};
use sim_core::SimResult;

const EVENTS_PER_MS: u64 = 12;
const SIM_MS: u64 = 20_000;

/// Replays `SIM_MS` virtual milliseconds of events; returns wall ns per
/// event.
fn run_case(mask: EventMask, fetch_every_ms: Option<u64>) -> SimResult<f64> {
    let fs = SynthFs;
    let mut duet = Duet::new(DuetConfig {
        max_sessions: 16,
        descriptor_limit: 1 << 20,
    });
    let sid = duet.register(
        TaskScope::File {
            registered_dir: SYNTH_ROOT,
        },
        mask,
        &fs,
    )?;
    let total_events = SIM_MS * EVENTS_PER_MS;
    let t0 = Stopwatch::start();
    let mut events = SynthEvents::default();
    for ms in 0..SIM_MS {
        for (meta, ev) in events.by_ref().take(EVENTS_PER_MS as usize) {
            duet.handle_page_event(meta, ev, &fs);
        }
        if fetch_every_ms.is_some_and(|every| ms % every == 0) {
            drain(&mut duet, sid)?;
        }
    }
    Ok(t0.elapsed_ns() as f64 / total_events as f64)
}

/// Runs the harness. `scale` is unused: the measurement replays a fixed
/// event stream.
pub fn run(_scale: u64, sink: &mut Sink) -> BenchResult<()> {
    sink.line(format!(
        "fig9: Duet bookkeeping cost, {EVENTS_PER_MS} events/ms stream"
    ));
    let mut report = Report::new(
        "fig9_cpu_overhead",
        &[
            "fetch_interval",
            "mask",
            "ns_per_event",
            "cpu_overhead_at_12ev_ms",
        ],
    );
    report.print_header(sink);
    let event_mask = EventMask::ADDED | EventMask::REMOVED | EventMask::DIRTIED;
    let state_mask = EventMask::EXISTS | EventMask::MODIFIED;
    for (label, interval) in [
        ("idle", None),
        ("10ms", Some(10)),
        ("20ms", Some(20)),
        ("40ms", Some(40)),
    ] {
        for (mask_label, mask) in [("events", event_mask), ("state", state_mask)] {
            let ns = run_case(mask, interval)?;
            // A 12 events/ms stream costs ns × 12_000 per second of
            // workload; overhead is that over one CPU-second.
            let overhead = ns * (EVENTS_PER_MS as f64 * 1000.0) / 1e9;
            report.row(
                sink,
                &[
                    label.to_string(),
                    mask_label.to_string(),
                    f2(ns),
                    format!("{:.3}%", overhead * 100.0),
                ],
            );
        }
    }
    report.save(sink)?;
    sink.line(
        "\nPaper shape: overhead in the low single-digit percent range; \
         state notifications slightly cheaper (events merge/cancel); \
         fetch frequency has little effect.",
    );
    Ok(())
}
