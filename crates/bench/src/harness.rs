//! The workspace's wall-clock gateway.
//!
//! Wall-clock time is fine here — it times the simulator from outside
//! (`bench run`'s per-harness wall, fig9, duetbench), never inside the
//! simulation (see the D1 lint rule).

use std::time::Instant;

/// A wall-clock stopwatch. The single sanctioned gateway to real time:
/// every timing in the workspace goes through this type, so `xtask lint`'s D1
/// waiver for this file covers all wall-clock access in the workspace.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    t0: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch { t0: Instant::now() }
    }

    /// Nanoseconds since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u128 {
        self.t0.elapsed().as_nanos()
    }
}
