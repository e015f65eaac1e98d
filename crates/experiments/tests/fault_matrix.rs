//! The fault matrix: every maintenance task × every fault-plan preset,
//! checked by the Duet-vs-Baseline equivalence oracle.
//!
//! Each cell runs the task twice under the same workload and the same
//! `(seed, plan)` fault stream — opportunistic and baseline — and
//! asserts the final logical states match. No cell may panic; injected
//! faults must either be absorbed (retry/backoff, re-enqueue, graceful
//! degradation) or propagate as clean `SimResult` errors, which the
//! oracle reports with a replay line.
//!
//! The seed honours `DUET_FAULT_SEED` (hex `0x…` or decimal) so a
//! failure seen in CI's rotating-seed job can be replayed locally:
//!
//! ```text
//! DUET_FAULT_SEED=0x1bad5eed cargo test -p experiments --test fault_matrix
//! ```

use experiments::oracle::{
    check_pair, check_pair_with, exercise_error_vocabulary, Meddle, OracleTask,
};
use sim_core::fault::{FaultPlan, FaultSite};
use sim_core::knobs::Knob;
use sim_core::SimError;

const DEFAULT_SEED: u64 = 0xD0E7_F457;

#[expect(
    clippy::panic,
    reason = "test helper: a malformed DUET_FAULT_SEED fails the calling test"
)]
fn seed() -> u64 {
    Knob::FaultSeed
        .read()
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(DEFAULT_SEED)
}

/// The full grid: 5 tasks × 5 preset plans (1 quiet + 4 adversarial).
#[test]
fn every_task_matches_baseline_under_every_preset_plan() {
    let seed = seed();
    let mut failures = Vec::new();
    for name in FaultPlan::PRESETS {
        let plan = FaultPlan::preset(name).unwrap_or_else(|| panic!("unknown preset {name}"));
        let mut fired = 0u64;
        for task in OracleTask::ALL {
            match check_pair(task, seed, &plan) {
                Ok(report) => fired += report.faults_fired,
                Err(e) => failures.push(format!("[{name} × {}]\n{e}", task.name())),
            }
        }
        // Adversarial plans must actually inject faults somewhere in
        // the row — an all-pass with zero fired faults would mean the
        // hooks are disconnected and the matrix is vacuous. (Checked
        // per plan, not per cell: a single cache-friendly task can
        // legitimately dodge every low-rate coin flip.)
        if !plan.is_quiet() && fired == 0 {
            failures.push(format!("[{name}] whole row passed but injected no faults"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} matrix cell(s) failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Plans parsed from replay-line specs run the same as built ones, so
/// the printed `(seed, plan)` pair really reproduces a failure.
#[test]
fn parsed_plan_spec_reproduces_preset_digest() {
    let seed = seed();
    let plan = FaultPlan::preset("disk-grief").unwrap_or_else(|| unreachable!());
    let reparsed = FaultPlan::parse(&plan.spec()).expect("spec must round-trip");
    assert_eq!(plan, reparsed);
    let a = check_pair(OracleTask::Scrub, seed, &plan).expect("scrub under disk-grief");
    let b = check_pair(OracleTask::Scrub, seed, &reparsed).expect("scrub under reparsed plan");
    assert_eq!(a.digest, b.digest, "replayed plan must be bit-identical");
}

/// The oracle discriminates: a deliberately-broken scrubber (silently
/// skips part of the scan) is caught, and the failure message carries
/// the replay line.
#[test]
fn sabotaged_task_is_caught_with_replay_line() {
    let seed = seed();
    for name in ["quiet", "disk-grief"] {
        let plan = FaultPlan::preset(name).unwrap_or_else(|| panic!("unknown preset {name}"));
        let err = check_pair_with(OracleTask::Scrub, seed, &plan, Meddle::Sabotage)
            .expect_err("broken scrubber must diverge from baseline");
        assert!(
            err.contains("replay: DUET_FAULT_SEED="),
            "failure must embed the replay contract, got:\n{err}"
        );
        assert!(err.contains(&format!("plan=\"{}\"", plan.spec())), "{err}");
    }
}

/// A site's solo row: the rate it runs alone at. No `_` arm: a new
/// `FaultSite` does not compile until it has a row here.
fn solo_ppm(site: FaultSite) -> u32 {
    match site {
        FaultSite::DiskTransientIo => 150_000,
        FaultSite::DiskLatencySpike => 250_000,
        // Latent corruption only triggers on write-path runs and
        // exhaustion only on the single `register` call per run, so
        // both need (near-)certain rates to fire their few draws.
        FaultSite::DiskLatentError => 1_000_000,
        FaultSite::CacheEvictionStorm => 200_000,
        FaultSite::CacheWritebackFail => 200_000,
        FaultSite::DuetSessionExhaustion => 1_000_000,
        FaultSite::DuetPathUnavailable => 500_000,
        FaultSite::DuetSessionChurn => 250_000,
    }
}

/// Solo rows: every fault site is exercised in isolation at an
/// aggressive rate and must (a) actually fire and (b) keep Duet
/// equivalent to baseline. The preset grid mixes sites, so a silently
/// disconnected hook could hide behind a noisy plan; a solo plan
/// cannot.
#[test]
fn every_fault_site_fires_and_matches_in_isolation() {
    let seed = seed();
    let mut failures = Vec::new();
    for site in FaultSite::ALL {
        let plan = FaultPlan::quiet().with_ppm(site, solo_ppm(site));
        let mut fired = 0u64;
        for task in OracleTask::ALL {
            match check_pair(task, seed, &plan) {
                Ok(report) => fired += report.faults_fired,
                Err(e) => failures.push(format!("[{} × {}]\n{e}", site.label(), task.name())),
            }
            // One matching, firing cell is a sufficient row; the preset
            // grid already crosses every task with mixed plans.
            if fired > 0 {
                break;
            }
        }
        if fired == 0 {
            failures.push(format!(
                "[{}] solo plan fired no faults in any task — hook disconnected?",
                site.label()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} solo row(s) failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Every error variant in the vocabulary is constructible via an
/// injected fault or API misuse, and observable through a clean
/// `SimResult` — no panics anywhere in the exerciser.
#[test]
fn error_vocabulary_is_complete() {
    let seen = exercise_error_vocabulary(seed());
    let missing: Vec<&str> = SimError::ALL_LABELS
        .iter()
        .filter(|l| !seen.contains(*l))
        .copied()
        .collect();
    assert!(
        missing.is_empty(),
        "error variants never observed: {missing:?}"
    );
}

/// A second, independent seed for the grid's most aggressive plan:
/// guards against the default seed happening to dodge a fault path.
#[test]
fn kitchen_sink_matches_under_shifted_seed() {
    let seed = seed() ^ 0x5EED_0001;
    let plan = FaultPlan::preset("kitchen-sink").unwrap_or_else(|| unreachable!());
    for task in OracleTask::ALL {
        if let Err(e) = check_pair(task, seed, &plan) {
            panic!("[kitchen-sink × {}] {e}", task.name());
        }
    }
}

/// Custom plan outside the presets: maximal stale-hint pressure. Tasks
/// must degrade (back out + re-enqueue per §3.2) and still converge.
#[test]
fn full_stale_hint_pressure_still_converges() {
    let seed = seed();
    let plan = FaultPlan::quiet()
        .with_ppm(FaultSite::DuetPathUnavailable, 900_000)
        .with_ppm(FaultSite::DuetSessionChurn, 100_000);
    for task in OracleTask::ALL {
        if let Err(e) = check_pair(task, seed, &plan) {
            panic!("[stale-hints × {}] {e}", task.name());
        }
    }
}

/// Degrade-to-baseline matrix: hints are advisory (§3.2), so a task
/// that finds every session slot taken at `start`, or whose session is
/// deregistered behind its back after its first step, still completes
/// without error and ends in the baseline's final state.
#[test]
fn every_task_without_hints_ends_in_the_baseline_state() {
    let (seed, quiet) = (seed(), FaultPlan::quiet());
    for task in OracleTask::ALL {
        for degrade in [Meddle::SlotsFull, Meddle::SessionLost] {
            if let Err(e) = check_pair_with(task, seed, &quiet, degrade) {
                panic!("[{degrade:?} × {}] {e}", task.name());
            }
        }
    }
}
