use sim_core::trace::{TraceHandle, TraceLayer};

// S1: opens a context, never closes one.
pub fn leaky(trace: &TraceHandle) {
    let _id = trace.ctx_begin(TraceLayer::Task, "good.kind", 0, &[]);
}

// Clean: begin and end in the same function.
pub fn paired(trace: &TraceHandle) {
    let id = trace.ctx_begin(TraceLayer::Task, "good.kind", 0, &[]);
    trace.ctx_end(id, 1);
}

// S2: emitted kind missing from the registry.
pub fn undocumented(trace: &TraceHandle) {
    trace.tick(TraceLayer::Task, "rogue.kind");
}

// S2: computed kind — cannot be checked against the registry.
pub fn computed(trace: &TraceHandle, kind: &'static str) {
    trace.tick(TraceLayer::Task, kind);
}

// Waived S1: the context is deliberately left open.
pub fn leaky_waived(trace: &TraceHandle) {
    // lint: allow(S1): fixture — deliberately open context
    let _id = trace.ctx_begin(TraceLayer::Task, "good.kind", 0, &[]);
}

// Waived S2: an off-registry kind, suppressed on the same line.
pub fn undocumented_waived(trace: &TraceHandle) {
    trace.tick(TraceLayer::Task, "waived.kind"); // lint: allow(S2): fixture — off-registry kind
}

// Test items are exempt: no S1 here.
#[cfg(test)]
fn leaky_in_test(trace: &TraceHandle) {
    let _id = trace.ctx_begin(TraceLayer::Task, "good.kind", 0, &[]);
}
