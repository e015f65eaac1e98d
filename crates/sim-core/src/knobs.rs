//! The three environment knobs a run reads — `DUET_SCALE`, `DUET_JOBS`,
//! `DUET_TRACE` — behind one strict parser.
//!
//! A malformed value is never ignored: `DUET_SCALE=abc` quietly running
//! at the default scale or `DUET_TRACE=off` turning tracing *on*
//! produces numbers for a configuration nobody asked for. Entry points call [`check_all`]
//! before doing any work and exit with status 2 on an error; the
//! readers go through the same parser ([`Knob::read`]), so code reached
//! without that check (tests, library users) still gets an error
//! instead of a fallback.

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
}

impl Knob {
    /// Every knob, in the order [`check_all`] reports them.
    pub const ALL: [Knob; 3] = [Knob::Scale, Knob::Jobs, Knob::Trace];

    /// The environment variable's name.
    pub fn var(self) -> &'static str {
        match self {
            Knob::Scale => "DUET_SCALE",
            Knob::Jobs => "DUET_JOBS",
            Knob::Trace => "DUET_TRACE",
        }
    }

    /// Parses a raw value (`None` = unset, which every knob accepts).
    /// The error names the variable and the offending value.
    pub fn parse(self, raw: Option<&str>) -> Result<Option<u64>, String> {
        let Some(raw) = raw else {
            return Ok(None);
        };
        let (accepted, wants) = match self {
            Knob::Scale | Knob::Jobs => (1..=u64::MAX, "a positive integer"),
            Knob::Trace => (0..=1, "0 (off) or 1 (on)"),
        };
        match strict_u64(raw, 10) {
            Some(v) if accepted.contains(&v) => Ok(Some(v)),
            _ => Err(format!("{}={raw:?}: expected {wants}", self.var())),
        }
    }

    /// Reads and parses the variable from the process environment.
    #[expect(
        clippy::disallowed_methods,
        reason = "D4: the one reader of DUET_SCALE/JOBS/TRACE; malformed values are errors, never defaults"
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
        for knob in Knob::ALL {
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
}
