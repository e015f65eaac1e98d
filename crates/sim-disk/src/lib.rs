//! Simulated block devices and I/O accounting.
//!
//! The paper's experiments run on an HP ProLiant server with a 300 GB
//! 10K-RPM SAS drive, and §6.5 repeats them on a consumer SSD (Intel 510).
//! This crate models both devices in virtual time:
//!
//! - [`hdd::HddModel`] — seek + rotational latency + transfer, with a
//!   track-buffer fast path for sequential continuation;
//! - [`ssd::SsdModel`] — per-operation overhead + transfer, with random
//!   and sequential behaviour calibrated to the device the paper used;
//! - [`Disk`] — a single-queue device executing requests serially,
//!   tracking busy time and per-class (foreground vs maintenance) I/O
//!   counters. Utilization is reported the way `iostat %util` reports it
//!   (§6.1.2): fraction of elapsed time the device was busy;
//! - [`run`] — the vocabulary the filesystems above speak to it:
//!   [`Run`], [`OpStats`], [`coalesce_into`] and [`Disk::submit_run`].
//!
//! Scheduling policy (CFQ idle class vs the Deadline scheduler of §6.5)
//! is represented by [`scheduler::SchedulerPolicy`]; the experiments
//! runner consults it to decide *when* maintenance requests may be
//! dispatched, which is exactly how the idle class behaves: idle-priority
//! requests are serviced only after the device has remained idle for a
//! grace period.

pub mod hdd;
pub mod metrics;
pub mod request;
pub mod run;
pub mod scheduler;
pub mod ssd;

pub use hdd::HddModel;
pub use metrics::{ClassMetrics, DiskMetrics};
pub use request::{IoClass, IoKind, IoRequest};
pub use run::{coalesce_into, OpStats, Run};
pub use scheduler::{RetryPolicy, SchedulerPolicy};
pub use ssd::SsdModel;

use sim_core::fault::{FaultHandle, FaultSite};
use sim_core::trace::{TraceHandle, TraceKind};
use sim_core::{BlockNr, SimDuration, SimError, SimInstant, SimResult};

/// Mechanical breakdown of one request's service time. The trace plane
/// records the three parts separately so seek-bound and transfer-bound
/// phases of a run can be told apart in the dumps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceParts {
    /// Arm movement (HDD) or per-operation overhead (SSD).
    pub seek: SimDuration,
    /// Rotational latency (zero on SSDs).
    pub rotation: SimDuration,
    /// Media transfer.
    pub transfer: SimDuration,
}

impl ServiceParts {
    /// The total service time, as charged to the device.
    pub fn total(&self) -> SimDuration {
        self.seek + self.rotation + self.transfer
    }
}

/// A device model computes the service time of one request, given its
/// own internal state (e.g. head position). Its derived `Debug` output
/// is its complete state (calibration constants and positioning):
/// [`Disk`]'s `==` compares two boxed models through it.
pub trait DeviceModel: std::fmt::Debug {
    /// Service time for `req`, broken into seek / rotation / transfer,
    /// updating internal state (head position, last-access block) as a
    /// side effect.
    fn service_parts(&mut self, req: &IoRequest) -> ServiceParts;

    /// Total service time for `req`; state updates as in
    /// [`DeviceModel::service_parts`].
    fn service_time(&mut self, req: &IoRequest) -> SimDuration {
        self.service_parts(req).total()
    }

    /// Device capacity in blocks.
    fn capacity_blocks(&self) -> u64;

    /// Human-readable model name for reports.
    fn name(&self) -> &'static str;

    /// Deep-copies the model, including positioning state (head, last
    /// request end) — the snapshot/fork plane clones whole devices.
    fn clone_box(&self) -> Box<dyn DeviceModel>;
}

/// A single-queue simulated block device.
///
/// Requests execute serially in submission order. [`Disk::submit`]
/// returns the completion time; the caller (the experiment runner)
/// advances the simulation clock. Busy intervals and per-class I/O
/// volumes are recorded in [`DiskMetrics`].
///
/// # Examples
///
/// ```
/// use sim_core::{BlockNr, SimInstant};
/// use sim_disk::{Disk, HddModel, IoClass, IoKind, IoRequest};
///
/// let mut disk = Disk::new(Box::new(HddModel::sas_10k(1 << 20)));
/// let req = IoRequest::new(IoKind::Read, BlockNr(0), 16, IoClass::Normal);
/// let done = disk.submit(&req, SimInstant::EPOCH);
/// assert!(done > SimInstant::EPOCH);
/// ```
pub struct Disk {
    model: Box<dyn DeviceModel>,
    busy_until: SimInstant,
    metrics: DiskMetrics,
    faults: Option<FaultHandle>,
    trace: Option<TraceHandle>,
}

impl Clone for Disk {
    /// Deep-copies the device for the snapshot/fork plane. The fault and
    /// trace handles are `Rc`-shared, so a fork taken while they are
    /// armed would observe the same buffers; snapshots are captured with
    /// both disarmed and re-armed per fork.
    fn clone(&self) -> Self {
        Disk {
            model: self.model.clone_box(),
            busy_until: self.busy_until,
            metrics: self.metrics,
            faults: self.faults.clone(),
            trace: self.trace.clone(),
        }
    }
}

impl PartialEq for Disk {
    /// Field by field, the boxed model through its derived `Debug`
    /// rendering (type name, every constant, head position).
    fn eq(&self, other: &Self) -> bool {
        let Disk {
            model,
            busy_until,
            metrics,
            faults,
            trace,
        } = self;
        *busy_until == other.busy_until
            && *metrics == other.metrics
            && *faults == other.faults
            && *trace == other.trace
            && format!("{model:?}") == format!("{:?}", other.model)
    }
}

impl Disk {
    /// Creates a disk with the given device model.
    pub fn new(model: Box<dyn DeviceModel>) -> Self {
        Disk {
            model,
            busy_until: SimInstant::EPOCH,
            metrics: DiskMetrics::default(),
            faults: None,
            trace: None,
        }
    }

    /// Arms (or disarms, with `None`) fault injection on this device.
    /// With no handle — or a quiet plan — behaviour is byte-identical
    /// to an unfaulted disk.
    pub fn set_faults(&mut self, faults: Option<FaultHandle>) {
        self.faults = faults;
    }

    /// Arms (or disarms, with `None`) tracing on this device. Tracing is
    /// pure observation: service times and metrics are unaffected.
    pub fn set_trace(&mut self, trace: Option<TraceHandle>) {
        self.trace = trace;
    }

    /// Device capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.model.capacity_blocks()
    }

    /// Submits a request at time `now` and returns its completion time.
    ///
    /// If the device is still busy with an earlier request, service
    /// starts when it frees up (FIFO). Busy time is attributed to the
    /// request's [`IoClass`].
    ///
    /// # Panics
    ///
    /// Panics if the request runs past the end of the device; filesystem
    /// layers validate ranges before submitting.
    pub fn submit(&mut self, req: &IoRequest, now: SimInstant) -> SimInstant {
        assert!(
            req.start.raw() + req.nblocks <= self.model.capacity_blocks(),
            "I/O past end of device: {:?}",
            req
        );
        self.execute(req, now)
    }

    /// Fallible variant of [`Disk::submit`]: out-of-range requests
    /// return [`SimError::BlockOutOfRange`] instead of panicking, and an
    /// armed [`FaultSite::DiskTransientIo`] fault yields
    /// [`SimError::TransientIo`] without occupying the device — the
    /// caller retries after a backoff (see [`Disk::submit_with_retry`]).
    pub fn try_submit(&mut self, req: &IoRequest, now: SimInstant) -> SimResult<SimInstant> {
        if req.start.raw() + req.nblocks > self.model.capacity_blocks() {
            return Err(SimError::BlockOutOfRange(request_end(
                req.start,
                req.nblocks,
            )));
        }
        if let Some(faults) = &self.faults {
            if faults.fire(FaultSite::DiskTransientIo) {
                return Err(SimError::TransientIo(req.start));
            }
        }
        Ok(self.execute(req, now))
    }

    /// Submits with bounded retry-and-backoff in virtual time: on a
    /// transient EIO the submission time advances by the policy's
    /// backoff and the request is retried, up to `max_attempts` total
    /// tries. Returns the completion time and the number of attempts
    /// used. Non-transient errors propagate immediately.
    pub fn submit_with_retry(
        &mut self,
        req: &IoRequest,
        now: SimInstant,
        policy: RetryPolicy,
    ) -> SimResult<(SimInstant, u32)> {
        let mut at = now;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.try_submit(req, at) {
                Ok(finish) => return Ok((finish, attempt)),
                Err(SimError::TransientIo(b)) => {
                    if attempt >= policy.max_attempts {
                        if let Some(trace) = &self.trace {
                            trace.event(TraceKind::DiskRetryExhausted, at, || {
                                vec![("block", b.raw().into()), ("attempts", attempt.into())]
                            });
                        }
                        return Err(SimError::TransientIo(b));
                    }
                    let backoff = policy.backoff_after(attempt - 1);
                    if let Some(trace) = &self.trace {
                        trace.event(TraceKind::DiskRetry, at, || {
                            vec![
                                ("block", b.raw().into()),
                                ("attempt", attempt.into()),
                                ("backoff_ns", backoff.as_nanos().into()),
                            ]
                        });
                    }
                    at += backoff;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Executes an in-range request: FIFO queueing plus the device
    /// model's service time, with an armed latency-spike fault
    /// multiplying the service time deterministically.
    fn execute(&mut self, req: &IoRequest, now: SimInstant) -> SimInstant {
        let start = self.busy_until.max(now);
        let parts = self.model.service_parts(req);
        let mut service = parts.total();
        let mut spiked = 0u64;
        if let Some(faults) = &self.faults {
            if faults.fire(FaultSite::DiskLatencySpike) {
                spiked = faults.amplitude(FaultSite::DiskLatencySpike, 2, 17);
                service = service * spiked;
            }
        }
        let finish = start + service;
        self.busy_until = finish;
        self.metrics.record(req, service);
        if let Some(trace) = &self.trace {
            trace.span(TraceKind::DiskIo, start, service, || {
                let mut fields = vec![
                    ("op", req.kind.label().into()),
                    ("class", req.class.label().into()),
                    ("block", req.start.raw().into()),
                    ("nblocks", req.nblocks.into()),
                    ("seek_ns", parts.seek.as_nanos().into()),
                    ("rot_ns", parts.rotation.as_nanos().into()),
                    ("xfer_ns", parts.transfer.as_nanos().into()),
                ];
                if spiked > 0 {
                    fields.push(("spike_x", spiked.into()));
                }
                fields
            });
        }
        finish
    }

    /// The time at which the device next becomes free.
    pub fn busy_until(&self) -> SimInstant {
        self.busy_until
    }

    /// Returns true if the device is free at `t`.
    pub fn is_idle_at(&self, t: SimInstant) -> bool {
        self.busy_until <= t
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &DiskMetrics {
        &self.metrics
    }

    /// Resets metrics (e.g. after a calibration phase) without touching
    /// device state.
    pub fn reset_metrics(&mut self) {
        self.metrics = DiskMetrics::default();
    }

    /// Foreground (`Normal`-class) device utilization over `elapsed`:
    /// the `%util` statistic of §6.1.2.
    pub fn foreground_utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.metrics.normal.busy_time.as_secs_f64() / elapsed.as_secs_f64()
        }
    }
}

/// Convenience: block number after the last block of a request.
pub fn request_end(start: BlockNr, nblocks: u64) -> BlockNr {
    BlockNr(start.raw() + nblocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(start: u64, n: u64) -> IoRequest {
        IoRequest::new(IoKind::Read, BlockNr(start), n, IoClass::Normal)
    }

    #[test]
    fn fifo_serialization() {
        let mut disk = Disk::new(Box::new(HddModel::sas_10k(1 << 20)));
        let t0 = SimInstant::EPOCH;
        let f1 = disk.submit(&read(0, 8), t0);
        // Submitted while busy: starts after f1.
        let f2 = disk.submit(&read(100_000, 8), t0);
        assert!(f2 > f1);
        // Submitted after the device is free: starts immediately.
        let later = f2 + SimDuration::from_millis(50);
        let f3 = disk.submit(&read(200_000, 8), later);
        assert!(f3 > later);
        assert_eq!(disk.busy_until(), f3);
    }

    #[test]
    fn utilization_accounting() {
        let mut disk = Disk::new(Box::new(HddModel::sas_10k(1 << 20)));
        let t0 = SimInstant::EPOCH;
        let f1 = disk.submit(&read(0, 256), t0);
        let busy = f1.duration_since(t0);
        let elapsed = busy * 2;
        let util = disk.foreground_utilization(elapsed);
        assert!((util - 0.5).abs() < 1e-9, "util {util}");
        // Idle-class I/O does not count toward foreground utilization.
        let idle_req = IoRequest::new(IoKind::Read, BlockNr(0), 256, IoClass::Idle);
        disk.submit(&idle_req, f1);
        assert!((disk.foreground_utilization(elapsed) - 0.5).abs() < 1e-9);
        assert!(disk.metrics().idle.busy_time > SimDuration::ZERO);
    }

    #[test]
    fn equality_sees_the_models_head_position() {
        let mut a = Disk::new(Box::new(HddModel::sas_10k(1 << 20)));
        a.submit(&read(1000, 8), SimInstant::EPOCH);
        let mut b = a.clone();
        assert!(a == b);
        // The same seek distance either side of the head costs the same
        // service time: `busy_until` and the metrics agree, and only
        // the boxed model's head position tells the two apart.
        let fa = a.submit(&read(1008 + 500, 8), SimInstant::EPOCH);
        let fb = b.submit(&read(1008 - 500, 8), SimInstant::EPOCH);
        assert_eq!((fa, a.metrics().normal), (fb, b.metrics().normal));
        assert!(a != b);
    }

    #[test]
    #[should_panic(expected = "past end of device")]
    fn out_of_range_panics() {
        let mut disk = Disk::new(Box::new(HddModel::sas_10k(100)));
        disk.submit(&read(99, 2), SimInstant::EPOCH);
    }

    #[test]
    fn helpers() {
        assert_eq!(request_end(BlockNr(10), 5), BlockNr(15));
    }

    mod trace {
        use super::*;
        use sim_core::fault::{FaultHandle, FaultPlan, FaultSite};
        use sim_core::trace::{TraceHandle, TraceKind};

        #[test]
        fn io_span_carries_service_breakdown() {
            let mut disk = Disk::new(Box::new(HddModel::sas_10k(1 << 20)));
            let tr = TraceHandle::new(64);
            disk.set_trace(Some(tr.clone()));
            let finish = disk.submit(&read(500_000, 16), SimInstant::EPOCH);
            let evs = tr.events();
            assert_eq!(evs.len(), 1);
            let ev = &evs[0];
            assert_eq!(ev.kind, TraceKind::DiskIo);
            assert_eq!(ev.field_str("op"), Some("read"));
            assert_eq!(ev.field_u64("block"), Some(500_000));
            assert_eq!(ev.field_u64("nblocks"), Some(16));
            // The parts sum to the span's extent, which ends at `finish`.
            let parts = ev.field_u64("seek_ns").unwrap()
                + ev.field_u64("rot_ns").unwrap()
                + ev.field_u64("xfer_ns").unwrap();
            assert_eq!(parts, ev.dur.as_nanos());
            assert_eq!(ev.at + ev.dur, finish);
            assert!(ev.field_u64("seek_ns").unwrap() > 0, "non-sequential seek");
        }

        #[test]
        fn retry_events_name_block_and_backoff() {
            let plan = FaultPlan::quiet().with_ppm(FaultSite::DiskTransientIo, 1_000_000);
            let handle = FaultHandle::new(1, plan);
            let mut disk = Disk::new(Box::new(HddModel::sas_10k(1 << 20)));
            disk.set_faults(Some(handle));
            let tr = TraceHandle::new(64);
            disk.set_trace(Some(tr.clone()));
            let policy = RetryPolicy::default();
            disk.submit_with_retry(&read(7, 8), SimInstant::EPOCH, policy)
                .unwrap_err();
            let evs = tr.events();
            // 3 retries then exhaustion under the 4-attempt default.
            assert_eq!(evs.len(), 4);
            assert_eq!(evs[0].kind, TraceKind::DiskRetry);
            assert_eq!(evs[0].field_u64("block"), Some(7));
            assert_eq!(evs[0].field_u64("backoff_ns"), Some(500_000));
            assert_eq!(evs[3].kind, TraceKind::DiskRetryExhausted);
            assert_eq!(evs[3].field_u64("attempts"), Some(4));
        }

        #[test]
        fn tracing_never_perturbs_service_times() {
            let mut traced = Disk::new(Box::new(HddModel::sas_10k(1 << 20)));
            traced.set_trace(Some(TraceHandle::new(8)));
            let mut plain = Disk::new(Box::new(HddModel::sas_10k(1 << 20)));
            let mut t = SimInstant::EPOCH;
            for i in 0..64 {
                let req = read((i * 104_729_123) % ((1 << 20) - 16), 16);
                assert_eq!(traced.submit(&req, t), plain.submit(&req, t));
                t = traced.busy_until();
            }
        }
    }

    mod faults {
        use super::*;
        use sim_core::fault::{FaultHandle, FaultPlan, FaultSite};

        fn disk_with(plan: FaultPlan, seed: u64) -> (Disk, FaultHandle) {
            let handle = FaultHandle::new(seed, plan);
            let mut disk = Disk::new(Box::new(HddModel::sas_10k(1 << 20)));
            disk.set_faults(Some(handle.clone()));
            (disk, handle)
        }

        #[test]
        fn try_submit_out_of_range_is_an_error_not_a_panic() {
            let mut disk = Disk::new(Box::new(HddModel::sas_10k(100)));
            let err = disk
                .try_submit(&read(99, 2), SimInstant::EPOCH)
                .unwrap_err();
            assert_eq!(err, sim_core::SimError::BlockOutOfRange(BlockNr(101)));
        }

        #[test]
        fn certain_eio_exhausts_retries_with_pinned_attempt_count() {
            let plan = FaultPlan::quiet().with_ppm(FaultSite::DiskTransientIo, 1_000_000);
            let (mut disk, handle) = disk_with(plan, 1);
            let policy = RetryPolicy::default();
            let err = disk
                .submit_with_retry(&read(0, 8), SimInstant::EPOCH, policy)
                .unwrap_err();
            assert_eq!(err, sim_core::SimError::TransientIo(BlockNr(0)));
            // Exactly max_attempts tries hit the EIO site — no more.
            assert_eq!(handle.fired(FaultSite::DiskTransientIo), 4);
            assert_eq!(handle.trials(FaultSite::DiskTransientIo), 4);
            // The device never executed anything.
            assert_eq!(disk.busy_until(), SimInstant::EPOCH);
        }

        #[test]
        fn retry_backoff_is_charged_in_virtual_time() {
            // Find a seed whose EIO stream fails exactly the first two
            // attempts at 50% rate, then compare the completion time
            // against an unfaulted run shifted by the pinned backoff.
            let plan = FaultPlan::quiet().with_ppm(FaultSite::DiskTransientIo, 500_000);
            let policy = RetryPolicy::default();
            let mut pinned = None;
            for seed in 0..64u64 {
                let (mut disk, handle) = disk_with(plan.clone(), seed);
                let Ok((finish, attempts)) =
                    disk.submit_with_retry(&read(0, 8), SimInstant::EPOCH, policy)
                else {
                    continue; // this seed exhausted all attempts
                };
                if attempts == 3 {
                    assert_eq!(handle.fired(FaultSite::DiskTransientIo), 2);
                    pinned = Some(finish);
                    break;
                }
            }
            let finish = pinned.expect("some seed in 0..64 yields exactly 2 EIOs");
            // Unfaulted service time for the same request on a fresh model.
            let mut clean = Disk::new(Box::new(HddModel::sas_10k(1 << 20)));
            let base = clean.submit(&read(0, 8), SimInstant::EPOCH);
            // Two failed attempts back off 0.5 ms then 1 ms.
            let backoff = SimDuration::from_micros(500) + SimDuration::from_millis(1);
            assert_eq!(finish, base + backoff);
        }

        #[test]
        fn latency_spike_multiplies_service_deterministically() {
            let plan = FaultPlan::quiet().with_ppm(FaultSite::DiskLatencySpike, 1_000_000);
            let (mut spiky, _) = disk_with(plan.clone(), 7);
            let spiked = spiky.submit(&read(0, 8), SimInstant::EPOCH);
            let mut clean = Disk::new(Box::new(HddModel::sas_10k(1 << 20)));
            let base = clean.submit(&read(0, 8), SimInstant::EPOCH);
            assert!(spiked > base, "spike must slow the request down");
            // Same (seed, plan) pair replays bit-identically.
            let (mut replay, _) = disk_with(plan, 7);
            assert_eq!(replay.submit(&read(0, 8), SimInstant::EPOCH), spiked);
        }

        #[test]
        fn submission_count_matches_attempt_budget() {
            // Pins the RetryPolicy semantics: `max_attempts` counts
            // total submissions, with a budget of 0 behaving like 1
            // (the first submission is unconditional). Every submission
            // consults the EIO fault site exactly once, so the site's
            // trial count *is* the device submission count.
            for budget in [0u32, 1, 2, 4, 7] {
                let plan = FaultPlan::quiet().with_ppm(FaultSite::DiskTransientIo, 1_000_000);
                let (mut disk, handle) = disk_with(plan, 11);
                let policy = RetryPolicy {
                    max_attempts: budget,
                    base_backoff: SimDuration::from_micros(500),
                    ..RetryPolicy::default()
                };
                let err = disk
                    .submit_with_retry(&read(0, 8), SimInstant::EPOCH, policy)
                    .unwrap_err();
                assert_eq!(err, sim_core::SimError::TransientIo(BlockNr(0)));
                let expected = budget.max(1) as u64;
                assert_eq!(
                    handle.trials(FaultSite::DiskTransientIo),
                    expected,
                    "budget {budget}: wrong submission count"
                );
                // N submissions ⇒ at most N−1 backoffs charged.
                let worst = policy.worst_case_backoff();
                let mut expected_backoff = SimDuration::ZERO;
                for a in 0..expected.saturating_sub(1) as u32 {
                    expected_backoff += policy.backoff_after(a);
                }
                assert_eq!(worst, expected_backoff, "budget {budget}");
                // Pinned absolute totals: geometric sum of 500 µs
                // doublings, 0.5 × (2^(N−1) − 1) ms, none near the
                // default 100 ms per-backoff clamp.
                let pinned_us = [0u64, 0, 500, 3_500, 31_500];
                let i = [0u32, 1, 2, 4, 7]
                    .iter()
                    .position(|&b| b == budget)
                    .unwrap();
                assert_eq!(
                    worst,
                    SimDuration::from_micros(pinned_us[i]),
                    "budget {budget}: worst-case total drifted"
                );
            }
        }

        #[test]
        fn quiet_plan_is_byte_identical_to_unfaulted() {
            let (mut armed, handle) = disk_with(FaultPlan::quiet(), 3);
            let mut clean = Disk::new(Box::new(HddModel::sas_10k(1 << 20)));
            let mut t = SimInstant::EPOCH;
            for i in 0..32 {
                let req = read(i * 1000, 8);
                assert_eq!(armed.try_submit(&req, t).unwrap(), clean.submit(&req, t));
                t = armed.busy_until();
            }
            assert_eq!(handle.total_fired(), 0);
        }
    }
}
