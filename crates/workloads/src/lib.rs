//! Filebench-style foreground workload generation (§6.1 of the paper).
//!
//! The paper drives its evaluation with Filebench, varied along three
//! axes (§6.1.1):
//!
//! - **data overlap** with maintenance work — here the `coverage`
//!   fraction of the file set the workload may touch, plus the uniform
//!   vs Microsoft-trace-shaped popularity distributions of Figure 1
//!   ([`distribution`]);
//! - **read-write ratio** — the three personalities webserver (10:1),
//!   webproxy (4:1) and fileserver (1:2) ([`personality`]);
//! - **workload I/O rate** — a feedback throttle that spaces operations
//!   to hit a target device utilization, mirroring the paper's
//!   profile-then-throttle methodology (§6.1.2) ([`workload`]).
//!
//! [`fsops::WorkloadFs`] abstracts the two simulated filesystems so the
//! same personalities run on the Btrfs model (Figures 2–8, Table 5) and
//! the F2fs model (Table 6).

pub mod distribution;
pub mod fsops;
pub mod personality;
pub mod workload;

pub use distribution::{cdf_at, ms_trace_weights, DistKind, FileSelector};
pub use fsops::WorkloadFs;
pub use personality::{Personality, WorkloadOp};
pub use workload::{
    populate_fileset, FileInfo, FileSetConfig, Workload, WorkloadConfig, WorkloadStats,
};
