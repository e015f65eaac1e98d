//! Output: the metric table, `out/results.json`, and the one-line JSON
//! object the benchmark contract asks for.

use crate::cli::{Plan, Stop};
use crate::json::Json;
use crate::runner::{Outcome, HOME};
use std::path::{Path, PathBuf};

/// Prints every metric as `workload metric value unit [min..max] n`,
/// then the failed checks.
pub fn print_table(outcomes: &[Outcome]) {
    for o in outcomes {
        let w = o.workload.name;
        for (m, s) in &o.e2e {
            println!(
                "{w} {} {} {} [{}..{}] {}",
                m.name, s.median, m.unit, s.min, s.max, s.n
            );
        }
        for (m, value) in &o.layers {
            println!("{w} {} {value} {}", m.name, m.unit);
        }
        let c = &o.checks;
        println!(
            "{w} checks {} attempted, {} failed",
            c.attempted,
            c.failed()
        );
        for f in &c.failures {
            println!("{w} FAILED {f}");
        }
    }
}

/// The contract's result: the last line of stdout.
pub fn contract_line(o: &Outcome, trace: bool) -> String {
    let mut metrics = Json::obj();
    let mut put = |name: &str, value: f64, unit: &str| {
        let mut m = Json::obj();
        m.set("value", value);
        m.set("unit", unit);
        metrics.set(name, m);
    };
    if trace {
        for (m, value) in &o.layers {
            put(m.name, *value, m.unit);
        }
    } else {
        for (m, s) in &o.e2e {
            put(m.name, s.median, m.unit);
        }
    }
    let mut line = Json::obj();
    line.set("correct", o.checks.failed() == 0);
    line.set("attempted", o.checks.attempted);
    line.set("failed", o.checks.failed());
    line.set("metrics", metrics);
    line.render()
}

fn first_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_default()
}

/// The commit being measured, if this is a git checkout with git at
/// hand; the driver's checkouts are neither.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["-C", HOME, "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Conditions of the run, recorded before the first child starts.
pub struct Conditions {
    loadavg: String,
    nproc: usize,
    commit: String,
}

impl Conditions {
    pub fn record() -> Conditions {
        Conditions {
            loadavg: first_line("/proc/loadavg"),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            commit: commit(),
        }
    }
}

/// Writes `out/results.json`; returns its path.
pub fn write_results(
    plan: &Plan,
    conditions: &Conditions,
    outcomes: &[Outcome],
) -> Result<PathBuf, String> {
    let mut doc = Json::obj();
    doc.set("schema", 1u64);
    doc.set("commit", conditions.commit.as_str());
    doc.set("nproc", conditions.nproc);
    doc.set("loadavg_at_start", conditions.loadavg.as_str());
    doc.set("seed", plan.seed);
    match plan.stop {
        Stop::Rounds(n) => doc.set("rounds", n),
        Stop::Seconds(t) => doc.set("seconds", t),
    }
    let mut workloads = Json::obj();
    for o in outcomes {
        let mut w = Json::obj();
        let mut e2e = Json::obj();
        for (m, s) in &o.e2e {
            e2e.set(m.name, s.to_json(m.unit));
        }
        w.set("end_to_end", e2e);
        let mut layers = Json::obj();
        for (m, value) in &o.layers {
            let mut entry = Json::obj();
            entry.set("value", *value);
            entry.set("unit", m.unit);
            layers.set(m.name, entry);
        }
        w.set("per_layer", layers);
        let pinned = o.stats.iter().find(|(s, _)| *s == plan.seed);
        w.set("stats", pinned.map_or(Json::Null, |(_, j)| j.clone()));
        let mut checks = Json::obj();
        checks.set("attempted", o.checks.attempted);
        checks.set("failed", o.checks.failed());
        w.set("checks", checks);
        workloads.set(o.workload.name, w);
    }
    doc.set("workloads", workloads);
    let path = Path::new(HOME).join("out").join("results.json");
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
