//! Deterministic fault-injection plane.
//!
//! A [`FaultPlan`] names the *sites* in the simulated stack where faults
//! may fire and the per-opportunity rate at which each one does. A
//! [`FaultHandle`] turns a `(seed, plan)` pair into concrete injection
//! decisions: every site draws from its own [`SimRng`] stream (derived
//! from the seed and a per-site salt), so arming or firing one site never
//! perturbs the decisions made at another, and a failing run replays
//! bit-identically from the `(seed, plan)` pair printed on failure.
//!
//! Rates are stored in parts-per-million so a plan's textual [`spec`]
//! round-trips exactly — no floating-point formatting is involved in the
//! replay contract. Components share one injector through clones of
//! the handle; a component whose handle is `None` (or whose site has
//! rate zero) behaves byte-identically to an unfaulted run.
//!
//! [`spec`]: FaultPlan::spec

use crate::error::{SimError, SimResult};
use crate::knobs::strict_u64;
use crate::rng::SimRng;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

/// One million: rates are expressed in parts-per-million of opportunities.
pub const PPM_SCALE: u64 = 1_000_000;

/// A place in the simulated stack where a fault may be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultSite {
    /// Transient EIO on an I/O submission; retried with backoff.
    DiskTransientIo,
    /// A per-request service-time spike (seek storm, remapped sector).
    DiskLatencySpike,
    /// A latent sector error: a block silently corrupts on disk and is
    /// only noticed when a checksum is next verified.
    DiskLatentError,
    /// A forced eviction storm: the cache sheds extra pages on insert.
    CacheEvictionStorm,
    /// A dirty page fails writeback and stays dirty for a later retry.
    CacheWritebackFail,
    /// `duet_register` reports the session table full.
    DuetSessionExhaustion,
    /// `duet_get_path` fails as if the file were no longer cached.
    DuetPathUnavailable,
    /// A session is deregistered and re-registered mid-run, losing its
    /// queued events and progress bitmaps.
    DuetSessionChurn,
    /// Drives the API-misuse exerciser that walks every `SimError` arm.
    /// Not plan-driven: the exerciser fires it at full rate, and in a
    /// grid preset it would make the matrix's fired-faults guard vacuous
    /// (a test keeps it out of every preset and the other sites in one).
    ApiChaos,
}

impl FaultSite {
    /// Every site, in a fixed order.
    pub const ALL: [FaultSite; 9] = [
        FaultSite::DiskTransientIo,
        FaultSite::DiskLatencySpike,
        FaultSite::DiskLatentError,
        FaultSite::CacheEvictionStorm,
        FaultSite::CacheWritebackFail,
        FaultSite::DuetSessionExhaustion,
        FaultSite::DuetPathUnavailable,
        FaultSite::DuetSessionChurn,
        FaultSite::ApiChaos,
    ];

    /// The stable textual name used in plan specs.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::DiskTransientIo => "disk-eio",
            FaultSite::DiskLatencySpike => "disk-spike",
            FaultSite::DiskLatentError => "disk-latent",
            FaultSite::CacheEvictionStorm => "cache-storm",
            FaultSite::CacheWritebackFail => "cache-wbfail",
            FaultSite::DuetSessionExhaustion => "duet-nosession",
            FaultSite::DuetPathUnavailable => "duet-nopath",
            FaultSite::DuetSessionChurn => "duet-churn",
            FaultSite::ApiChaos => "api-chaos",
        }
    }

    /// Parse a site label back into a site.
    pub fn from_label(label: &str) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|s| s.label() == label)
    }

    /// Per-site salt mixed into the seed so each site gets an
    /// independent random stream.
    fn salt(self) -> u64 {
        // Arbitrary odd constants; only their distinctness matters.
        match self {
            FaultSite::DiskTransientIo => 0x9e37_79b9_7f4a_7c15,
            FaultSite::DiskLatencySpike => 0xbf58_476d_1ce4_e5b9,
            FaultSite::DiskLatentError => 0x94d0_49bb_1331_11eb,
            FaultSite::CacheEvictionStorm => 0x2545_f491_4f6c_dd1d,
            FaultSite::CacheWritebackFail => 0xd6e8_feb8_6659_fd93,
            FaultSite::DuetSessionExhaustion => 0xa076_1d64_78bd_642f,
            FaultSite::DuetPathUnavailable => 0xe703_7ed1_a0b4_28db,
            FaultSite::DuetSessionChurn => 0x8ebc_6af0_9c88_c6e3,
            FaultSite::ApiChaos => 0x5895_89e7_d470_3aeb,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A named set of fault rates, one per [`FaultSite`], in parts per
/// million of opportunities. An empty plan is "quiet": no site ever
/// fires and every component behaves exactly as in an unfaulted run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    rates: BTreeMap<FaultSite, u32>,
}

impl FaultPlan {
    /// The empty plan: nothing fires.
    pub fn quiet() -> FaultPlan {
        FaultPlan::default()
    }

    /// Set the rate for one site, in parts per million (capped at one
    /// million, i.e. "every opportunity").
    pub fn with_ppm(mut self, site: FaultSite, ppm: u32) -> FaultPlan {
        let ppm = ppm.min(PPM_SCALE as u32);
        if ppm == 0 {
            self.rates.remove(&site);
        } else {
            self.rates.insert(site, ppm);
        }
        self
    }

    /// The rate for a site, in parts per million.
    pub fn ppm(&self, site: FaultSite) -> u32 {
        self.rates.get(&site).copied().unwrap_or(0)
    }

    /// True if no site can ever fire.
    pub fn is_quiet(&self) -> bool {
        self.rates.is_empty()
    }

    /// The canonical textual form, e.g. `"cache-storm=80000,disk-eio=40000"`.
    /// Sorted, integer-only, and parsed back exactly by [`FaultPlan::parse`].
    pub fn spec(&self) -> String {
        if self.rates.is_empty() {
            return "quiet".to_string();
        }
        let mut parts: Vec<String> = self
            .rates
            .iter()
            .map(|(site, ppm)| format!("{}={}", site.label(), ppm))
            .collect();
        parts.sort();
        parts.join(",")
    }

    /// Parse a spec produced by [`FaultPlan::spec`] (or written by hand).
    /// `"quiet"` and the empty string yield the quiet plan. Each entry is
    /// `site=ppm` with ppm plain digits up to one million, and names a
    /// site at most once: a spec is never silently rewritten, so a parsed
    /// plan's [`spec`](FaultPlan::spec) is the one that was given.
    pub fn parse(spec: &str) -> SimResult<FaultPlan> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "quiet" {
            return Ok(FaultPlan::quiet());
        }
        let mut plan = FaultPlan::quiet();
        let mut seen = BTreeSet::new();
        for part in spec.split(',') {
            let part = part.trim();
            let bad =
                |why: &str| SimError::InvalidArgument(format!("fault spec entry '{part}' {why}"));
            let (label, rate) = part.split_once('=').ok_or_else(|| bad("is not site=ppm"))?;
            let site = FaultSite::from_label(label).ok_or_else(|| bad("names no fault site"))?;
            let ppm = strict_u64(rate, 10)
                .filter(|&ppm| ppm <= PPM_SCALE)
                .ok_or_else(|| bad("wants a ppm of 0..=1000000"))?;
            if !seen.insert(site) {
                return Err(bad("repeats its site"));
            }
            plan = plan.with_ppm(site, ppm as u32);
        }
        Ok(plan)
    }

    /// Names accepted by [`FaultPlan::preset`]. The first is quiet; the
    /// rest are the adversarial plans the fault matrix runs.
    pub const PRESETS: [&'static str; 5] = [
        "quiet",
        "disk-grief",
        "cache-pressure",
        "framework-churn",
        "kitchen-sink",
    ];

    /// A named preset plan, or `None` for an unknown name.
    pub fn preset(name: &str) -> Option<FaultPlan> {
        let plan = match name {
            "quiet" => FaultPlan::quiet(),
            "disk-grief" => FaultPlan::quiet()
                .with_ppm(FaultSite::DiskTransientIo, 80_000)
                .with_ppm(FaultSite::DiskLatencySpike, 100_000)
                .with_ppm(FaultSite::DiskLatentError, 5_000),
            "cache-pressure" => FaultPlan::quiet()
                .with_ppm(FaultSite::CacheEvictionStorm, 150_000)
                .with_ppm(FaultSite::CacheWritebackFail, 200_000),
            "framework-churn" => FaultPlan::quiet()
                .with_ppm(FaultSite::DuetPathUnavailable, 250_000)
                .with_ppm(FaultSite::DuetSessionExhaustion, 500_000)
                .with_ppm(FaultSite::DuetSessionChurn, 20_000),
            "kitchen-sink" => FaultPlan::quiet()
                .with_ppm(FaultSite::DiskTransientIo, 40_000)
                .with_ppm(FaultSite::DiskLatencySpike, 50_000)
                .with_ppm(FaultSite::DiskLatentError, 2_000)
                .with_ppm(FaultSite::CacheEvictionStorm, 80_000)
                .with_ppm(FaultSite::CacheWritebackFail, 100_000)
                .with_ppm(FaultSite::DuetPathUnavailable, 150_000)
                .with_ppm(FaultSite::DuetSessionExhaustion, 250_000)
                .with_ppm(FaultSite::DuetSessionChurn, 10_000),
            _ => return None,
        };
        Some(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec())
    }
}

/// The replay contract: everything needed to reproduce a faulted run.
///
/// Printed on any fault-related failure. The seed is an environment
/// assignment: the fault matrix reads `DUET_FAULT_SEED`, so re-running
/// it with that seed replays every preset-plan cell bit-identically.
/// The plan is *not* — nothing reads a plan from the environment. It
/// is the spec [`FaultPlan::parse`] takes; to replay a plan that is not
/// one of [`FaultPlan::PRESETS`], parse it and pass it with the seed to
/// the check that failed (e.g. `experiments::oracle::check_pair`).
pub fn replay_line(seed: u64, plan: &FaultPlan) -> String {
    format!(
        "replay: DUET_FAULT_SEED={:#x} plan=\"{}\"",
        seed,
        plan.spec()
    )
}

/// Reads a replay seed from the environment variable `var` (decimal or
/// `0x`-prefixed hex); `default` when the variable is unset. The
/// fault-matrix and differential suites honour `DUET_FAULT_SEED` /
/// `DUET_CHECK_SEED` through this.
///
/// # Errors
///
/// A malformed value is an error naming the variable and the value,
/// never the default: a mistyped replay seed must not "reproduce" a
/// different run.
#[expect(
    clippy::disallowed_methods,
    reason = "D4: the one reader of DUET_FAULT_SEED/DUET_CHECK_SEED; a mistyped replay seed is an error"
)]
pub fn seed_from_env(var: &str, default: u64) -> Result<u64, String> {
    match std::env::var(var) {
        Ok(raw) => parse_seed(var, &raw),
        Err(std::env::VarError::NotPresent) => Ok(default),
        Err(std::env::VarError::NotUnicode(raw)) => Err(format!("{var}={raw:?}: not valid UTF-8")),
    }
}

fn parse_seed(var: &str, raw: &str) -> Result<u64, String> {
    let parsed = match raw.strip_prefix("0x") {
        Some(hex) => strict_u64(hex, 16),
        None => strict_u64(raw, 10),
    };
    parsed.ok_or_else(|| format!("{var}={raw:?}: expected a decimal or 0x-prefixed hex u64 seed"))
}

/// What a [`FaultHandle`]'s clones share: the replay pair, one lazily
/// created RNG stream per site, and the per-site tallies.
#[derive(Debug)]
struct FaultState {
    seed: u64,
    plan: FaultPlan,
    streams: BTreeMap<FaultSite, SimRng>,
    fired: BTreeMap<FaultSite, u64>,
    trials: BTreeMap<FaultSite, u64>,
}

impl FaultState {
    fn stream(&mut self, site: FaultSite) -> &mut SimRng {
        let seed = self.seed;
        self.streams
            .entry(site)
            .or_insert_with(|| SimRng::new(seed ^ site.salt()))
    }
}

/// Turns a `(seed, plan)` pair into concrete, replayable injection
/// decisions; each site draws from an independent RNG stream. The
/// handle is cloneable and every clone shares the one injector: hand
/// clones to the disk, the page cache and the Duet framework so a
/// single `(seed, plan)` pair drives the whole stack.
#[derive(Debug, Clone)]
pub struct FaultHandle {
    inner: Rc<RefCell<FaultState>>,
}

/// A handle is an identity, not a value: two are equal when they share
/// the one injector.
impl PartialEq for FaultHandle {
    fn eq(&self, other: &Self) -> bool {
        let FaultHandle { inner } = self;
        Rc::ptr_eq(inner, &other.inner)
    }
}

impl FaultHandle {
    /// A new shared injector for the given replay pair.
    pub fn new(seed: u64, plan: FaultPlan) -> FaultHandle {
        FaultHandle {
            inner: Rc::new(RefCell::new(FaultState {
                seed,
                plan,
                streams: BTreeMap::new(),
                fired: BTreeMap::new(),
                trials: BTreeMap::new(),
            })),
        }
    }

    /// Decide whether a fault fires at this opportunity. A site with
    /// rate zero never fires and never consumes randomness, so quiet
    /// runs are byte-identical to unfaulted ones.
    pub fn fire(&self, site: FaultSite) -> bool {
        let mut st = self.inner.borrow_mut();
        *st.trials.entry(site).or_insert(0) += 1;
        let ppm = st.plan.ppm(site) as u64;
        if ppm == 0 {
            return false;
        }
        let hit = st.stream(site).gen_range(0, PPM_SCALE) < ppm;
        if hit {
            *st.fired.entry(site).or_insert(0) += 1;
        }
        hit
    }

    /// A deterministic magnitude draw in `lo..hi` from the site's own
    /// stream (e.g. how many extra pages an eviction storm sheds).
    pub fn amplitude(&self, site: FaultSite, lo: u64, hi: u64) -> u64 {
        self.inner.borrow_mut().stream(site).gen_range(lo, hi)
    }

    /// How many times a site has fired so far.
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.inner.borrow().fired.get(&site).copied().unwrap_or(0)
    }

    /// How many opportunities a site has seen so far.
    pub fn trials(&self, site: FaultSite) -> u64 {
        self.inner.borrow().trials.get(&site).copied().unwrap_or(0)
    }

    /// Total faults fired across all sites.
    pub fn total_fired(&self) -> u64 {
        self.inner.borrow().fired.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips() {
        for name in FaultPlan::PRESETS {
            let plan = FaultPlan::preset(name).unwrap();
            let back = FaultPlan::parse(&plan.spec()).unwrap();
            assert_eq!(plan, back, "preset {name} must round-trip");
        }
        assert_eq!(FaultPlan::parse("quiet").unwrap(), FaultPlan::quiet());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::quiet());
        // Malformed entries are errors naming the entry, never rewrites:
        // a sign, a rate past one million (once capped to it) and a
        // repeated site (once last-wins) included.
        for bad in [
            "bogus-site=5",
            "disk-eio",
            "disk-eio=notanumber",
            "disk-eio=+5",
            "disk-eio=-5",
            "disk-eio=",
            "disk-eio=2000000",
            "disk-eio=5,disk-eio=7",
            "disk-eio=0,disk-eio=7",
        ] {
            let Err(SimError::InvalidArgument(msg)) = FaultPlan::parse(bad) else {
                panic!("{bad:?} must be rejected");
            };
            let entry = bad.rsplit(',').next().unwrap_or(bad);
            assert!(msg.contains(&format!("'{entry}'")), "{bad:?}: {msg}");
        }
        let full = FaultPlan::parse("disk-eio=1000000").unwrap();
        assert_eq!(full.spec(), "disk-eio=1000000");
    }

    /// Every plan-driven site is armed by some preset, so the preset grid
    /// reaches its hook; `ApiChaos`, which the exerciser fires, by none.
    #[test]
    fn presets_arm_every_site_but_api_chaos() {
        for site in FaultSite::ALL {
            let armed = FaultPlan::PRESETS
                .iter()
                .any(|name| FaultPlan::preset(name).unwrap().ppm(site) > 0);
            assert_eq!(armed, site != FaultSite::ApiChaos, "{site}");
        }
    }

    #[test]
    fn quiet_sites_never_fire_or_draw() {
        let inj = FaultHandle::new(7, FaultPlan::quiet());
        for _ in 0..1000 {
            assert!(!inj.fire(FaultSite::DiskTransientIo));
        }
        assert_eq!(inj.total_fired(), 0);
        assert_eq!(inj.trials(FaultSite::DiskTransientIo), 1000);
        // No stream was ever created, so no randomness was consumed.
        assert!(inj.inner.borrow().streams.is_empty());
    }

    #[test]
    fn replay_is_bit_identical() {
        let plan = FaultPlan::preset("kitchen-sink").unwrap();
        let a = FaultHandle::new(0xDEAD_BEEF, plan.clone());
        let b = FaultHandle::new(0xDEAD_BEEF, plan);
        for i in 0..4096u64 {
            let site = FaultSite::ALL[i as usize % FaultSite::ALL.len()];
            assert_eq!(a.fire(site), b.fire(site));
        }
        assert_eq!(a.total_fired(), b.total_fired());
        assert!(a.total_fired() > 0, "kitchen-sink must actually fire");
    }

    #[test]
    fn sites_draw_independent_streams() {
        // Firing site A between two draws of site B must not change
        // site B's decisions.
        let plan = FaultPlan::quiet()
            .with_ppm(FaultSite::DiskTransientIo, 500_000)
            .with_ppm(FaultSite::CacheEvictionStorm, 500_000);
        let interleaved = FaultHandle::new(99, plan.clone());
        let solo = FaultHandle::new(99, plan);
        let mut got = Vec::new();
        let mut want = Vec::new();
        for _ in 0..256 {
            interleaved.fire(FaultSite::DiskTransientIo);
            got.push(interleaved.fire(FaultSite::CacheEvictionStorm));
            want.push(solo.fire(FaultSite::CacheEvictionStorm));
        }
        assert_eq!(got, want);
    }

    #[test]
    fn replay_line_mentions_seed_and_plan() {
        let plan = FaultPlan::preset("disk-grief").unwrap();
        let line = replay_line(0xABC, &plan);
        assert!(line.contains("DUET_FAULT_SEED=0xabc"), "{line}");
        assert!(line.contains("plan=\"disk-eio=80000,"), "{line}");
        // The plan is what `FaultPlan::parse` takes, not an env assignment.
        let spec = line.split('"').nth(1).expect("quoted plan");
        assert_eq!(FaultPlan::parse(spec), Ok(plan));
    }

    #[test]
    fn seed_env_parsing() {
        // Unset is the one case that yields the default.
        assert_eq!(seed_from_env("DUET_FAULT_SEED_UNSET_FOR_TEST", 42), Ok(42));
        assert_eq!(parse_seed("DUET_FAULT_SEED", "12"), Ok(12));
        assert_eq!(parse_seed("DUET_CHECK_SEED", "0xd1ffba5e"), Ok(0xD1FF_BA5E));
        // A malformed seed used to fall back to the default silently.
        for bad in ["0xZZ", "", "12 ", " 12", "0x", "-1", "+7", "0x+ff", "1e3"] {
            let err = parse_seed("DUET_FAULT_SEED", bad).unwrap_err();
            assert!(
                err.contains("DUET_FAULT_SEED") && err.contains(&format!("{bad:?}")),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn labels_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::from_label(site.label()), Some(site));
        }
        assert_eq!(FaultSite::from_label("nope"), None);
    }

    #[test]
    fn handle_shares_one_injector() {
        let plan = FaultPlan::quiet().with_ppm(FaultSite::ApiChaos, 1_000_000);
        let h = FaultHandle::new(1, plan);
        let h2 = h.clone();
        assert!(h.fire(FaultSite::ApiChaos));
        assert!(h2.fire(FaultSite::ApiChaos));
        assert_eq!(h.fired(FaultSite::ApiChaos), 2);
        assert_eq!(h2.trials(FaultSite::ApiChaos), 2);
    }
}
