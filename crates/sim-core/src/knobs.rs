//! The five environment knobs — `DUET_SCALE`, `DUET_JOBS`, `DUET_TRACE`
//! and the replay seeds `DUET_FAULT_SEED` and `DUET_CHECK_SEED` —
//! behind one strict parser.
//!
//! A malformed value is never ignored: `DUET_SCALE=abc` quietly running
//! at the default scale, `DUET_TRACE=off` turning tracing *on* or a
//! mistyped replay seed "reproducing" the default seed's run produces
//! numbers for a configuration nobody asked for. Entry points call
//! [`check_all`] before doing any work and exit with status 2 on an
//! error; the readers go through the same parser ([`Knob::read`]), so
//! code reached without that check (tests, library users) still gets an
//! error instead of a fallback.

/// One environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// `DUET_SCALE`: experiment scale divisor, a positive integer.
    Scale,
    /// `DUET_JOBS`: sweep worker threads, a positive integer.
    Jobs,
    /// `DUET_TRACE`: `1` makes the sweep harnesses aggregate per-layer
    /// trace counters next to their CSVs, `0` (or unset) does not.
    Trace,
    /// `DUET_FAULT_SEED`: the fault matrix's seed, decimal or `0x` hex.
    FaultSeed,
    /// `DUET_CHECK_SEED`: the differential suites' base seed, decimal
    /// or `0x` hex.
    CheckSeed,
}

impl Knob {
    /// Every knob, in the order [`check_all`] reports them.
    pub const ALL: [Knob; 5] = [
        Knob::Scale,
        Knob::Jobs,
        Knob::Trace,
        Knob::FaultSeed,
        Knob::CheckSeed,
    ];

    /// The environment variable's name.
    pub fn var(self) -> &'static str {
        match self {
            Knob::Scale => "DUET_SCALE",
            Knob::Jobs => "DUET_JOBS",
            Knob::Trace => "DUET_TRACE",
            Knob::FaultSeed => "DUET_FAULT_SEED",
            Knob::CheckSeed => "DUET_CHECK_SEED",
        }
    }

    /// Parses a raw value (`None` = unset, which every knob accepts).
    /// The error names the variable and the offending value.
    pub fn parse(self, raw: Option<&str>) -> Result<Option<u64>, String> {
        let Some(raw) = raw else {
            return Ok(None);
        };
        let (parsed, wants) = match self {
            Knob::Scale | Knob::Jobs => (
                strict_u64(raw, 10).filter(|&v| v >= 1),
                "a positive integer",
            ),
            Knob::Trace => (strict_u64(raw, 10).filter(|&v| v <= 1), "0 (off) or 1 (on)"),
            Knob::FaultSeed | Knob::CheckSeed => (
                match raw.strip_prefix("0x") {
                    Some(hex) => strict_u64(hex, 16),
                    None => strict_u64(raw, 10),
                },
                "a decimal or 0x-prefixed hex u64 seed",
            ),
        };
        parsed
            .map(Some)
            .ok_or_else(|| format!("{}={raw:?}: expected {wants}", self.var()))
    }

    /// Reads and parses the variable from the process environment.
    #[expect(
        clippy::disallowed_methods,
        reason = "D4: the one reader of the DUET_* knobs; malformed values are errors, never defaults"
    )]
    pub fn read(self) -> Result<Option<u64>, String> {
        match std::env::var(self.var()) {
            Ok(raw) => self.parse(Some(&raw)),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(raw)) => {
                Err(format!("{}={raw:?}: not valid UTF-8", self.var()))
            }
        }
    }
}

/// Parses `digits` in `radix` when it is digits and nothing else: the
/// std parsers alone would also take a leading `+`.
pub(crate) fn strict_u64(digits: &str, radix: u32) -> Option<u64> {
    if !digits.chars().all(|c| c.is_digit(radix)) {
        return None;
    }
    u64::from_str_radix(digits, radix).ok()
}

/// Validates every knob; the first malformed one is the error.
pub fn check_all() -> Result<(), String> {
    for knob in Knob::ALL {
        knob.read()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_and_well_formed_values_are_accepted() {
        for knob in Knob::ALL {
            assert_eq!(knob.parse(None), Ok(None));
            assert_eq!(knob.parse(Some("1")), Ok(Some(1)));
        }
        // What `scripts/check.sh` and duetbench's children pass.
        assert_eq!(Knob::Scale.parse(Some("512")), Ok(Some(512)));
        assert_eq!(Knob::Jobs.parse(Some("2")), Ok(Some(2)));
    }

    #[test]
    fn knobs_reject_garbage_naming_variable_and_value() {
        let err = Knob::Scale.parse(Some("abc")).unwrap_err();
        assert!(
            err.contains("DUET_SCALE") && err.contains("\"abc\""),
            "{err}"
        );
        let err = Knob::Jobs.parse(Some("x")).unwrap_err();
        assert!(err.contains("DUET_JOBS") && err.contains("\"x\""), "{err}");
        for knob in [Knob::Scale, Knob::Jobs, Knob::Trace] {
            for bad in [
                "",
                " 1",
                "1 ",
                "-1",
                "+1",
                "1.0",
                "0x10",
                "99999999999999999999",
            ] {
                assert!(knob.parse(Some(bad)).is_err(), "{knob:?} {bad:?}");
            }
        }
    }

    #[test]
    fn knobs_reject_out_of_range_values() {
        // Zero workers or a zero scale used to be clamped to 1.
        assert!(Knob::Jobs.parse(Some("0")).is_err());
        assert!(Knob::Scale.parse(Some("0")).is_err());
    }

    #[test]
    fn trace_knob_is_a_strict_switch() {
        assert_eq!(Knob::Trace.parse(Some("0")), Ok(Some(0)));
        assert_eq!(Knob::Trace.parse(Some("1")), Ok(Some(1)));
        // Anything non-empty but "0" used to *enable* tracing.
        for bad in ["off", "false", "no", "true", "2"] {
            let err = Knob::Trace.parse(Some(bad)).unwrap_err();
            assert!(
                err.contains("DUET_TRACE") && err.contains(&format!("{bad:?}")),
                "{err}"
            );
        }
    }

    /// Either seed is a `u64` in decimal or `0x`-prefixed hex, and
    /// nothing else: a malformed seed used to fall back to the default
    /// silently.
    #[test]
    fn seed_knobs_take_decimal_or_hex() {
        for knob in [Knob::FaultSeed, Knob::CheckSeed] {
            assert_eq!(knob.parse(Some("0")), Ok(Some(0)));
            assert_eq!(knob.parse(Some("12")), Ok(Some(12)));
            assert_eq!(knob.parse(Some("0xd1ffba5e")), Ok(Some(0xD1FF_BA5E)));
            assert_eq!(knob.parse(Some("0xFFFFFFFFFFFFFFFF")), Ok(Some(u64::MAX)));
            for bad in [
                "0xZZ", "", "12 ", " 12", "0x", "0X10", "-1", "+7", "0x+ff", "1e3", "0x1_0",
            ] {
                let err = knob.parse(Some(bad)).unwrap_err();
                assert!(
                    err.contains(knob.var()) && err.contains(&format!("{bad:?}")),
                    "{bad:?}: {err}"
                );
            }
        }
    }
}
