//! Per-class I/O accounting.

use crate::request::{IoClass, IoKind, IoRequest};
use sim_core::SimDuration;

/// Counters for one scheduling class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassMetrics {
    /// Completed read requests.
    pub read_ops: u64,
    /// Completed write requests.
    pub write_ops: u64,
    /// Blocks read.
    pub blocks_read: u64,
    /// Blocks written.
    pub blocks_written: u64,
    /// Total device busy time attributed to this class.
    pub busy_time: SimDuration,
}

impl ClassMetrics {
    /// Total requests.
    pub fn ops(&self) -> u64 {
        self.read_ops + self.write_ops
    }

    /// Total blocks transferred.
    pub fn blocks(&self) -> u64 {
        self.blocks_read + self.blocks_written
    }
}

/// Device-wide metrics, split by scheduling class.
///
/// The evaluation uses these to compute the paper's metrics (Table 4):
/// maintenance I/O performed (the `Idle` class) and foreground
/// utilization (busy time of the `Normal` class over elapsed time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DiskMetrics {
    /// Foreground workload I/O.
    pub normal: ClassMetrics,
    /// Maintenance I/O.
    pub idle: ClassMetrics,
}

impl DiskMetrics {
    /// Records a completed request.
    pub fn record(&mut self, req: &IoRequest, service: SimDuration) {
        let class = match req.class {
            IoClass::Normal => &mut self.normal,
            IoClass::Idle => &mut self.idle,
        };
        match req.kind {
            IoKind::Read => {
                class.read_ops += 1;
                class.blocks_read += req.nblocks;
            }
            IoKind::Write => {
                class.write_ops += 1;
                class.blocks_written += req.nblocks;
            }
        }
        class.busy_time += service;
    }

    /// Total blocks transferred across classes.
    pub fn total_blocks(&self) -> u64 {
        self.normal.blocks() + self.idle.blocks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::BlockNr;

    #[test]
    fn records_by_class_and_kind() {
        let mut m = DiskMetrics::default();
        m.record(
            &IoRequest::new(IoKind::Read, BlockNr(0), 4, IoClass::Normal),
            SimDuration::from_millis(1),
        );
        m.record(
            &IoRequest::new(IoKind::Write, BlockNr(0), 2, IoClass::Idle),
            SimDuration::from_millis(2),
        );
        assert_eq!(m.normal.read_ops, 1);
        assert_eq!(m.normal.blocks_read, 4);
        assert_eq!(m.normal.write_ops, 0);
        assert_eq!(m.idle.write_ops, 1);
        assert_eq!(m.idle.blocks_written, 2);
        assert_eq!(m.total_blocks(), 6);
        assert_eq!(m.normal.ops(), 1);
        assert_eq!(m.idle.blocks(), 2);
    }
}
