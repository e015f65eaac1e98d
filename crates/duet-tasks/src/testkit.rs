//! What the Btrfs task unit tests share: populate a filesystem, step a
//! started task to completion with the event pump between steps, and
//! end every drive in fsck.

use crate::bridge::pump_btrfs;
use crate::task::{BtrfsCtx, BtrfsTask};
use duet::Duet;
use sim_btrfs::BtrfsSim;
use sim_core::{DeviceId, InodeNr, SimInstant, PAGE_SIZE};
use sim_disk::{Disk, HddModel};

/// Every test step runs at the epoch: these tests count work, not time.
pub(crate) const T0: SimInstant = SimInstant::EPOCH;

/// Steps past which a drive is taken not to terminate.
const MAX_STEPS: u64 = 10_000;

/// A 256 MiB disk under a `cache`-page cache holding `files` files
/// `f0`, `f1`, … of `pages` pages each (returned in creation order),
/// and a framework with no sessions.
pub(crate) fn btrfs_with_files(
    files: u64,
    pages: u64,
    cache: usize,
) -> (BtrfsSim, Duet, Vec<InodeNr>) {
    let disk = Disk::new(Box::new(HddModel::sas_10k(1 << 16)));
    let mut fs = BtrfsSim::new(DeviceId(0), disk, cache);
    let inos = (0..files)
        .map(|i| {
            fs.populate_file(fs.root(), &format!("f{i}"), pages * PAGE_SIZE)
                .unwrap()
        })
        .collect();
    (fs, Duet::with_defaults(), inos)
}

/// A task context at [`T0`].
pub(crate) fn ctx<'a>(fs: &'a mut BtrfsSim, duet: &'a mut Duet) -> BtrfsCtx<'a> {
    BtrfsCtx { fs, duet, now: T0 }
}

/// Steps the started `task` until it reports completion, pumping
/// events after every step, then runs fsck. Returns the steps taken.
pub(crate) fn drive(task: &mut dyn BtrfsTask, fs: &mut BtrfsSim, duet: &mut Duet) -> u64 {
    let mut steps = 0;
    loop {
        let r = task.step(ctx(fs, duet)).unwrap();
        pump_btrfs(fs, duet);
        steps += 1;
        if r.complete {
            break;
        }
        assert!(steps < MAX_STEPS, "{} did not terminate", task.name());
    }
    fs.check_consistency()
        .expect("fsck after the task completed");
    steps
}
