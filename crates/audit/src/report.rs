//! Rendering an [`AuditReport`] as human-readable diagnostics or as the
//! machine-readable JSON written to `AUDIT_report.json`.
//!
//! The JSON here is emitted by hand — the format is small, flat, and
//! pinned by golden tests (stable field order, arrays sorted by
//! file/line/rule).

use crate::engine::AuditReport;
use crate::rules::ALL_RULES;

/// Render the human-readable diagnostics: one `file:line: [rule] message`
/// per finding, sorted, followed by a one-line summary.
pub fn render_text(report: &AuditReport) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            v.file, v.line, v.rule, v.message
        ));
    }
    let verdict = if report.is_clean() { "clean" } else { "FAILED" };
    out.push_str(&format!(
        "cqc audit: {verdict} — {} violation(s), {} waiver(s), {} unsafe region file(s), \
         {} file(s) scanned\n",
        report.violations.len(),
        report.waived.len(),
        report.unsafe_inventory.len(),
        report.files_scanned,
    ));
    out
}

/// Render the machine-readable JSON report.
pub fn render_json(report: &AuditReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"tool\": \"cqc-audit\",\n");
    out.push_str(&format!(
        "  \"clean\": {},\n",
        if report.is_clean() { "true" } else { "false" }
    ));
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    out.push_str("  \"rules\": [");
    for (i, r) in ALL_RULES.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{r}\""));
    }
    out.push_str("],\n");

    out.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str(&format!(
            "{{\"file\": {}, \"line\": {}, \"rule\": \"{}\", \"message\": {}}}",
            json_string(&v.file),
            v.line,
            v.rule,
            json_string(&v.message)
        ));
    }
    out.push_str(if report.violations.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"waivers\": [");
    for (i, w) in report.waived.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        out.push_str(&format!(
            "{{\"file\": {}, \"line\": {}, \"rule\": \"{}\", \"reason\": {}}}",
            json_string(&w.file),
            w.line,
            w.rule,
            json_string(&w.reason)
        ));
    }
    out.push_str(if report.waived.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"unsafe_inventory\": [");
    for (i, s) in report.unsafe_inventory.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"file\": {}, \"regions\": {}}}",
            json_string(&s.file),
            s.regions
        ));
    }
    out.push_str("],\n");

    out.push_str(&format!(
        "  \"summary\": {{\"violations\": {}, \"waivers\": {}}}\n",
        report.violations.len(),
        report.waived.len()
    ));
    out.push_str("}\n");
    out
}

/// `s` as a quoted JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    cqc_obs::trace::escape_json(s, &mut out);
    out.push('"');
    out
}
