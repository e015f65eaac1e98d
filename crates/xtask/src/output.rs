//! The machine-readable report renderer: stable JSON (the text form
//! is printed by `main`).
//!
//! Built by deterministic string assembly (no maps, violations
//! pre-sorted by the driver), so the output is byte-identical across
//! runs — CI diffs it directly.

use crate::rules::LintReport;

/// JSON string escaping per RFC 8259 (the control-character subset
/// that can actually appear in messages and paths).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The stable JSON form: one object, violations in report order.
pub fn render_json(report: &LintReport) -> String {
    let mut out = format!("{{\n  \"files_checked\": {},\n", report.files_checked);
    out.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"token\": \"{}\", \
             \"message\": \"{}\"}}",
            v.rule,
            esc(&v.path),
            v.line,
            esc(&v.token),
            esc(&v.message)
        ));
    }
    if report.violations.is_empty() {
        out.push_str("],\n");
    } else {
        out.push_str("\n  ],\n");
    }
    out.push_str("  \"warnings\": [");
    for (i, w) in report.warnings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\"", esc(w)));
    }
    if report.warnings.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{LintReport, Rule, Violation};

    fn report() -> LintReport {
        LintReport {
            violations: vec![Violation {
                rule: Rule::S2,
                path: "crates/a/src/lib.rs".into(),
                line: 7,
                token: "rogue.kind".into(),
                message: "say \"no\" to\tschema drift".into(),
            }],
            warnings: vec!["note".into()],
            files_checked: 3,
        }
    }

    #[test]
    fn json_escapes_and_shapes() {
        let j = render_json(&report());
        assert!(j.contains("\"files_checked\": 3"));
        assert!(j.contains("\\\"no\\\" to\\tschema"));
        assert!(j.contains("\"rule\": \"S2\""));
    }

    #[test]
    fn empty_report_renders_empty_arrays() {
        let j = render_json(&LintReport::default());
        assert!(j.contains("\"violations\": [],"));
    }
}
