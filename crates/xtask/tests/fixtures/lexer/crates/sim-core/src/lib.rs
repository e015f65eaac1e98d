// Lexer regression fixture: rule tokens inside literals and comments
// are inert. Leaked, `duet::` would be an upward L1 edge, `ctx_begin(`
// an unpaired S1 context, and `fire(FaultSite::Ghost)` a hook that
// silences the one real finding: F1 on `Ghost` in fault.rs.

pub fn inert() -> &'static str {
    /* outer /* use duet::Duet; */ trace.ctx_begin(TraceLayer::Task, "k") */
    let bytes = b"use duet::Duet; h.fire(FaultSite::Ghost)";
    let _ = bytes;
    r#"use duet::Duet; trace.ctx_begin(TraceLayer::Task, "k"); h.fire(FaultSite::Ghost)"#
}
