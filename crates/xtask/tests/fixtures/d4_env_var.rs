// Fixture: ad-hoc environment reads are ambient configuration (D4) —
// only `sim_core::knobs` and `sim_core::fault` carry a waiver.
pub fn jobs() -> usize {
    std::env::var("DUET_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

pub fn has_home() -> bool {
    std::env::var_os("HOME").is_some()
}
