//! Quickstart: register a Duet session, generate page-cache activity,
//! and watch the notifications arrive.
//!
//! Run with: `cargo run --example quickstart`

use duet::{Duet, EventMask, ItemFlags, TaskScope};
use duet_tasks::pump_btrfs;
use sim_btrfs::BtrfsSim;
use sim_core::{DeviceId, SimInstant, PAGE_SIZE};
use sim_disk::{Disk, HddModel, IoClass};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 256 MiB simulated disk with a 2 MiB page cache.
    let disk = Disk::new(Box::new(HddModel::sas_10k(1 << 16)));
    let mut fs = BtrfsSim::new(DeviceId(0), disk, 512);
    let mut duet = Duet::with_defaults();

    // Create some files, "already on disk".
    let docs = fs.mkdir(fs.root(), "docs")?;
    let report = fs.populate_file(docs, "report.pdf", 8 * PAGE_SIZE)?;
    let notes = fs.populate_file(docs, "notes.txt", 4 * PAGE_SIZE)?;

    // Register a file task on /docs for existence-state notifications
    // (the mask used by the paper's defrag and rsync tasks, Table 3).
    let sid = duet.register(
        TaskScope::File {
            registered_dir: docs,
        },
        EventMask::EXISTS | EventMask::MODIFIED,
        &fs,
    )?;
    println!("registered session {sid} on /docs");

    // A \"foreground application\" reads one file and overwrites part of
    // another; the event pump plays the role of the kernel hooks.
    let t0 = SimInstant::EPOCH;
    fs.read(report, 0, 8 * PAGE_SIZE, IoClass::Normal, t0)?;
    fs.write(notes, 0, 2 * PAGE_SIZE, IoClass::Normal, t0)?;
    pump_btrfs(&mut fs, &mut duet);

    // The maintenance task polls for hints (Algorithm 1's fetch loop).
    let items = duet.fetch(sid, 64, &fs)?;
    println!("fetched {} page-level notifications:", items.len());
    for item in &items {
        let ino = item.id.as_inode().ok_or("file task items are inodes")?;
        let path = duet.get_path(sid, ino, &fs)?;
        let mut what = Vec::new();
        if item.flags.contains(ItemFlags::EXISTS) {
            what.push("in cache");
        }
        if item.flags.contains(ItemFlags::MODIFIED) {
            what.push("dirty");
        }
        println!("  {path} offset {:>6}: {}", item.offset, what.join(" + "));
    }

    // Mark one file processed: no more notifications for it.
    let first = items[0].id.as_inode().ok_or("file task items are inodes")?;
    duet.set_done(sid, duet::ItemId::Inode(first))?;
    fs.read(first, 0, PAGE_SIZE, IoClass::Normal, t0)?;
    pump_btrfs(&mut fs, &mut duet);
    let again = duet.fetch(sid, 64, &fs)?;
    println!(
        "after duet_set_done, a re-read of {} produced {} new items",
        fs.path_of(first)?,
        again.len()
    );
    duet.deregister(sid)?;
    println!("done.");
    Ok(())
}
