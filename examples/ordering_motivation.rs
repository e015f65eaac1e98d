//! The paper's §2 motivation, made concrete: two maintenance passes
//! over the same data whose fixed processing orders don't line up.
//!
//! "Consider two hypothetical tasks, one that traverses the file system
//! in depth-first order, and the other in breadth-first order. If these
//! tasks are run concurrently, even careful scheduling of I/O requests
//! may not provide much benefit." — out-of-order processing at the
//! application level is what unlocks the sharing.
//!
//! Here the two "tasks" are two backups of the same data, *staggered*:
//! the second starts when the first is already halfway through, so
//! their fixed inode-order positions never line up, and the page cache
//! (much smaller than the data) cannot bridge the gap by itself.
//! Without Duet each reads the full data set; with Duet, the trailing
//! task consumes the leader's pages the moment the hints arrive.
//!
//! Run with: `cargo run --release --example ordering_motivation`

use duet::Duet;
use duet_tasks::{pump_btrfs, Backup, BtrfsCtx, BtrfsTask, TaskMode};
use sim_btrfs::BtrfsSim;
use sim_core::{DeviceId, SimInstant, SimResult, PAGE_SIZE};
use sim_disk::{Disk, HddModel};

const T0: SimInstant = SimInstant::EPOCH;

fn build_fs() -> SimResult<BtrfsSim> {
    let disk = Disk::new(Box::new(HddModel::sas_10k(1 << 17)));
    // Cache is ~12 % of the data: incidental sharing between the
    // misaligned passes is negligible.
    let mut fs = BtrfsSim::new(DeviceId(0), disk, 256);
    for i in 0..64 {
        fs.populate_file(fs.root(), &format!("f{i:03}"), 32 * PAGE_SIZE)?;
    }
    Ok(fs)
}

/// Runs two concurrent backups in the given mode; returns total blocks
/// read from the device.
fn run_pair(mode: TaskMode) -> SimResult<(u64, String)> {
    let mut fs = build_fs()?;
    let mut duet = Duet::with_defaults();
    let mut a = Backup::new(mode);
    let mut b = Backup::new(mode);
    a.start(BtrfsCtx {
        fs: &mut fs,
        duet: &mut duet,
        now: T0,
    })?;
    b.start(BtrfsCtx {
        fs: &mut fs,
        duet: &mut duet,
        now: T0,
    })?;
    // Stagger: the first task runs alone until halfway. The second is
    // registered and keeps *polling* — consuming hints is CPU work, and
    // cached pages must be grabbed before they evict.
    while a.metrics().done_units * 2 < a.metrics().total_units {
        a.step(BtrfsCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        })?;
        pump_btrfs(&mut fs, &mut duet);
        b.poll(BtrfsCtx {
            fs: &mut fs,
            duet: &mut duet,
            now: T0,
        })?;
    }
    let (mut da, mut db) = (false, false);
    while !(da && db) {
        if !da {
            da = a
                .step(BtrfsCtx {
                    fs: &mut fs,
                    duet: &mut duet,
                    now: T0,
                })?
                .complete;
            pump_btrfs(&mut fs, &mut duet);
        }
        if !db {
            db = b
                .step(BtrfsCtx {
                    fs: &mut fs,
                    duet: &mut duet,
                    now: T0,
                })?
                .complete;
            pump_btrfs(&mut fs, &mut duet);
        }
    }
    let status = duet.status();
    let total = a.metrics().blocks_read + b.metrics().blocks_read;
    Ok((total, status))
}

fn main() -> SimResult<()> {
    let data_blocks = 64 * 32;
    println!("two concurrent backups of {data_blocks} blocks of data\n");
    let (base, _) = run_pair(TaskMode::Baseline)?;
    println!(
        "baseline (both in fixed inode order): {base} blocks read ({:.1} passes)",
        base as f64 / data_blocks as f64
    );
    let (duet_reads, status) = run_pair(TaskMode::Duet)?;
    println!(
        "duet (out-of-order via hints):        {duet_reads} blocks read ({:.1} passes)",
        duet_reads as f64 / data_blocks as f64
    );
    println!(
        "\nI/O reduction: {:.0}%",
        100.0 * (1.0 - duet_reads as f64 / base as f64)
    );
    println!("\nframework status after the Duet run:\n{status}");
    Ok(())
}
