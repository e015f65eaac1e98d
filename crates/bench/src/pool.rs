//! A zero-dependency work pool for fanning independent, deterministic
//! experiment cells out across cores.
//!
//! Every cell is a self-contained, single-threaded discrete-event run:
//! it shares no mutable state with its neighbours, takes its entire
//! input from its configuration, and is bit-reproducible (seeded RNG,
//! virtual time — enforced by the clippy determinism lints and the
//! golden tests). Cell results therefore cannot depend on execution
//! order, and the pool exploits that: workers pull cell indices from a
//! shared cursor, write results into a slot keyed by the index, and the
//! caller receives them in input order. Output is byte-identical at any
//! worker count, including 1 ([`run_indexed`] short-circuits to a
//! plain loop when `jobs <= 1`). Its one caller outside tests is
//! `cell::Batch::run_by`, which runs every distinct cell of a
//! `bench run` — or of one harness run alone — in a single call, so at
//! most `jobs` workers ever exist.
//!
//! This is the single sanctioned use of OS threads in the workspace
//! (the `#[expect]` on [`run_indexed`] is the one D4 thread
//! waiver); simulation crates stay thread-free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count: `DUET_JOBS` if set (a positive integer — see
/// `sim_core::knobs`), else the machine's available parallelism,
/// else 1.
pub fn jobs() -> usize {
    if let Some(j) = crate::knob(sim_core::knobs::Knob::Jobs) {
        return usize::try_from(j).unwrap_or(usize::MAX);
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f(0..n)` on up to `jobs` workers and returns the results in
/// index order. `f` must be pure with respect to index order (every
/// sweep cell is); the results are then identical at any `jobs`.
#[expect(
    clippy::disallowed_methods,
    reason = "D4: the one sanctioned pool; index-keyed slots keep output byte-identical at any width"
)]
pub fn run_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let width = jobs.max(1).min(n);
    if width <= 1 {
        return (0..n).map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..width {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                match slots.lock() {
                    Ok(mut guard) => guard[i] = Some(r),
                    // A sibling panicked while holding the lock; stop
                    // pulling work (the scope will propagate the
                    // original panic).
                    Err(_) => break,
                }
            });
        }
    });
    let collected = match slots.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    };
    collected
        .into_iter()
        // Unreachable unless a worker died; treated as missing output,
        // surfaced as a panic by the scope above.
        .map(|slot| slot.unwrap_or_else(|| unreachable!("pool worker dropped a slot")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `i * i` for every `i < n` at `jobs` workers.
    fn squares(n: usize, jobs: usize) -> Vec<usize> {
        run_indexed(n, jobs, |i| i * i)
    }

    #[test]
    fn results_arrive_in_index_order_at_any_width() {
        let sequential: Vec<usize> = (0..97).map(|i| i * i).collect();
        for jobs in [1, 2, 4, 9] {
            assert_eq!(squares(97, jobs), sequential, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_inputs_work() {
        assert_eq!(squares(0, 4), Vec::<usize>::new());
        assert_eq!(squares(1, 4), vec![0]);
    }

    #[test]
    fn jobs_env_overrides() {
        // `jobs()` reads the environment; only assert the invariant
        // that holds regardless of the test environment.
        assert!(jobs() >= 1);
    }
}
