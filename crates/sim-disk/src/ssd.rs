//! Solid-state-drive service-time model.
//!
//! §6.5 of the paper repeats the experiments on a consumer Intel 510 SSD
//! and reports two properties that drive the Figure 10 results:
//!
//! 1. Sequential streaming is about twice as fast as the 10K SAS drive,
//!    so the scrubber "completes in half the time";
//! 2. 64 KiB *random* reads run at roughly the same ~21 MB/s as the hard
//!    drive, so "the default backup time is similar on the hard drive
//!    and the SSD".
//!
//! [`SsdModel::intel_510`] is calibrated to those observed behaviours
//! (per-op overhead for non-contiguous requests + 300 MB/s streaming)
//! rather than to datasheet numbers; the substitution is recorded in
//! DESIGN.md.

use crate::request::{IoKind, IoRequest};
use crate::{DeviceModel, ServiceParts};
use sim_core::{BlockNr, SimDuration, PAGE_SIZE};

/// Per-operation-overhead SSD model.
#[derive(Debug, Clone, PartialEq)]
pub struct SsdModel {
    capacity_blocks: u64,
    /// Overhead charged to a read that does not continue the previous
    /// request.
    random_read_overhead: SimDuration,
    /// Overhead charged to a non-contiguous write (flash programming).
    random_write_overhead: SimDuration,
    /// Streaming transfer rate, bytes per second.
    transfer_bps: f64,
    prev_end: Option<BlockNr>,
}

impl SsdModel {
    /// The consumer SSD of §6.5, calibrated to the paper's observations
    /// (see module docs).
    pub fn intel_510(capacity_blocks: u64) -> Self {
        SsdModel {
            capacity_blocks,
            random_read_overhead: SimDuration::from_micros(2800),
            random_write_overhead: SimDuration::from_micros(900),
            transfer_bps: 300.0e6,
            prev_end: None,
        }
    }

    /// Fully parameterized constructor for sensitivity studies.
    pub fn with_params(
        capacity_blocks: u64,
        random_read_overhead: SimDuration,
        random_write_overhead: SimDuration,
        transfer_bps: f64,
    ) -> Self {
        assert!(transfer_bps > 0.0, "transfer rate must be positive");
        SsdModel {
            capacity_blocks,
            random_read_overhead,
            random_write_overhead,
            transfer_bps,
            prev_end: None,
        }
    }

    fn transfer_time(&self, nblocks: u64) -> SimDuration {
        SimDuration::from_secs_f64(nblocks as f64 * PAGE_SIZE as f64 / self.transfer_bps)
    }
}

impl DeviceModel for SsdModel {
    fn service_parts(&mut self, req: &IoRequest) -> ServiceParts {
        let sequential = self.prev_end == Some(req.start);
        // The per-op overhead occupies the "seek" slot of the breakdown;
        // an SSD has no rotational component.
        let overhead = if sequential {
            SimDuration::ZERO
        } else {
            match req.kind {
                IoKind::Read => self.random_read_overhead,
                IoKind::Write => self.random_write_overhead,
            }
        };
        self.prev_end = Some(req.end());
        ServiceParts {
            seek: overhead,
            rotation: SimDuration::ZERO,
            transfer: self.transfer_time(req.nblocks),
        }
    }

    fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    fn name(&self) -> &'static str {
        "ssd-intel-510"
    }

    fn clone_box(&self) -> Box<dyn DeviceModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoClass;

    const CAP: u64 = 29 << 20; // ~120 GB in 4 KiB blocks.

    fn req(kind: IoKind, start: u64, n: u64) -> IoRequest {
        IoRequest::new(kind, BlockNr(start), n, IoClass::Normal)
    }

    fn throughput(model: &mut SsdModel, reqs: &[IoRequest]) -> f64 {
        let total: SimDuration = reqs.iter().map(|r| model.service_time(r)).sum();
        let bytes: u64 = reqs.iter().map(|r| r.bytes()).sum();
        bytes as f64 / total.as_secs_f64() / 1e6
    }

    #[test]
    fn sequential_read_near_streaming_rate() {
        let mut m = SsdModel::intel_510(CAP);
        let reqs: Vec<IoRequest> = (0..100).map(|i| req(IoKind::Read, i * 256, 256)).collect();
        let mbps = throughput(&mut m, &reqs);
        assert!(mbps > 270.0, "sequential {mbps} MB/s");
    }

    #[test]
    fn random_64k_read_matches_paper_observation() {
        let mut m = SsdModel::intel_510(CAP);
        let reqs: Vec<IoRequest> = (0..200u64)
            .map(|i| req(IoKind::Read, (i * 7_919_993) % (CAP - 16), 16))
            .collect();
        let mbps = throughput(&mut m, &reqs);
        // Should sit near the ~21 MB/s the paper reports for both devices.
        assert!((15.0..30.0).contains(&mbps), "64K random {mbps} MB/s");
    }

    #[test]
    fn sequential_faster_than_hdd_by_about_2x() {
        use crate::hdd::HddModel;
        let mut ssd = SsdModel::intel_510(CAP);
        let mut hdd = HddModel::sas_10k(CAP);
        let reqs: Vec<IoRequest> = (0..100).map(|i| req(IoKind::Read, i * 256, 256)).collect();
        let s = throughput(&mut ssd, &reqs);
        let h = {
            let total: SimDuration = reqs.iter().map(|r| hdd.service_time(r)).sum();
            let bytes: u64 = reqs.iter().map(|r| r.bytes()).sum();
            bytes as f64 / total.as_secs_f64() / 1e6
        };
        let ratio = s / h;
        assert!(
            (1.6..2.6).contains(&ratio),
            "ssd/hdd sequential ratio {ratio}"
        );
    }

    #[test]
    fn with_params_overrides_apply() {
        let mut custom = SsdModel::with_params(
            CAP,
            SimDuration::from_micros(100),
            SimDuration::from_micros(50),
            500.0e6,
        );
        let mut stock = SsdModel::intel_510(CAP);
        let r = req(IoKind::Read, CAP / 2, 16);
        assert!(custom.service_time(&r) < stock.service_time(&r));
    }

    #[test]
    fn random_writes_cheaper_than_random_reads_here() {
        // The Intel 510 calibration gives writes a smaller penalty: the
        // workload's small writes stay fast while the backup's random
        // reads bottleneck, matching §6.5's account.
        let mut a = SsdModel::intel_510(CAP);
        let mut b = SsdModel::intel_510(CAP);
        let r = a.service_time(&req(IoKind::Read, 1_000_000, 16));
        let w = b.service_time(&req(IoKind::Write, 1_000_000, 16));
        assert!(r > w);
    }
}
