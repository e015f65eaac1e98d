//! Virtual-time structured tracing plane.
//!
//! Every layer of the simulated stack — disk, page cache, filesystems,
//! the Duet framework and the maintenance tasks — can emit structured
//! [`TraceEvent`]s into one shared, ring-buffered [`TraceHandle`]. The
//! plane exists for one purpose: when a Duet run and its baseline twin
//! disagree, the event streams say *where* — the equivalence oracle
//! replays both and localizes the first divergent effect together with
//! its causal span chain (task → work item → operation).
//!
//! Design rules, in the spirit of the rest of the workspace:
//!
//! - **Virtual time only.** Events are stamped with [`SimInstant`]s and
//!   [`SimDuration`]s; the plane never consults a wall clock, so a trace
//!   is a pure function of the run's `(config, seed, plan)` and replays
//!   byte-identically (the golden trace-determinism tests pin this).
//! - **Pure observation.** Emitting a trace never changes simulation
//!   state, consumes randomness or returns information to the caller
//!   that could steer control flow, so an armed trace cannot perturb a
//!   run: CSV outputs are byte-identical with tracing on or off.
//! - **Bounded memory.** The ring keeps the newest `capacity` events;
//!   older ones are dropped (and counted in [`TraceHandle::dropped`]).
//!   Per-`(layer, kind)` aggregate counters are updated on *every* emit
//!   and survive ring rotation, so cheap whole-run statistics remain
//!   exact even when the event window does not cover the whole run.
//!
//! The sharing pattern mirrors [`crate::fault`]: one cloneable
//! [`TraceHandle`] is handed to the disk, the cache, the filesystems and
//! the framework (`set_trace(Some(handle.clone()))`); a component whose
//! handle is `None` pays one `Option` check per hook.
//!
//! The dump format is line-delimited JSON ([`TraceHandle::dump_jsonl`]):
//! one event per line, stable field order — the replay/diff format.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use crate::clock::{SimDuration, SimInstant};

/// Default ring capacity: large enough that the oracle's bounded runs
/// never rotate, small enough (a few MB) to arm casually.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// The stack layer an event originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLayer {
    /// Block device: I/O service spans, retries.
    Disk,
    /// Page cache: add/remove/dirty/flush/evict.
    Cache,
    /// The CoW filesystem: submits, checksums, allocations.
    Btrfs,
    /// The log-structured filesystem: submits, log allocations, GC moves.
    F2fs,
    /// The Duet framework: hint delivery, state merges, session churn.
    Duet,
    /// Maintenance tasks: work items and their effects.
    Task,
}

impl TraceLayer {
    /// Every layer, in a fixed order.
    pub const ALL: [TraceLayer; 6] = [
        TraceLayer::Disk,
        TraceLayer::Cache,
        TraceLayer::Btrfs,
        TraceLayer::F2fs,
        TraceLayer::Duet,
        TraceLayer::Task,
    ];

    /// Stable textual name used in dumps and counter keys.
    pub fn label(self) -> &'static str {
        match self {
            TraceLayer::Disk => "disk",
            TraceLayer::Cache => "cache",
            TraceLayer::Btrfs => "btrfs",
            TraceLayer::F2fs => "f2fs",
            TraceLayer::Duet => "duet",
            TraceLayer::Task => "task",
        }
    }
}

impl fmt::Display for TraceLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Identifier of a span within one [`TraceHandle`]'s buffer. Ids start at 1;
/// `SpanId(0)` is never assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// A structured field value. Numbers stay numbers in the JSON dumps;
/// `Sym` is a static label, `Text` an owned string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned integer (block numbers, inode numbers, counts, ns).
    U(u64),
    /// A static symbol (e.g. `"read"`, `"hint"`, `"scan"`).
    Sym(&'static str),
    /// An owned string (rare; paths).
    Text(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U(v as u64)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U(v as u64)
    }
}

impl From<&'static str> for FieldValue {
    fn from(v: &'static str) -> FieldValue {
        FieldValue::Sym(v)
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> FieldValue {
        FieldValue::Text(v)
    }
}

/// One named field of an event.
pub type Field = (&'static str, FieldValue);

/// One structured trace record. Instant events have `dur == 0`; span
/// records carry their own id in `span` and cover `[at, at + dur)`.
/// `parent` is the enclosing context span (a task work item) active
/// when the record was emitted — the causal chain the divergence
/// localizer reports.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic sequence number within the buffer (0-based).
    pub seq: u64,
    /// Virtual start time.
    pub at: SimInstant,
    /// Virtual extent (zero for instant events).
    pub dur: SimDuration,
    /// Originating layer.
    pub layer: TraceLayer,
    /// Stable kind label, e.g. `"io"`, `"evict"`, `"scrub.verify"`.
    pub kind: &'static str,
    /// This record's span id, if it is a span.
    pub span: Option<SpanId>,
    /// Enclosing context span, if any.
    pub parent: Option<SpanId>,
    /// Structured payload, in emission order.
    pub fields: Vec<Field>,
}

impl TraceEvent {
    /// Looks up an integer field by name.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        self.fields.iter().find_map(|(n, v)| match v {
            FieldValue::U(u) if *n == name => Some(*u),
            _ => None,
        })
    }

    /// Looks up a string-valued field by name.
    pub fn field_str(&self, name: &str) -> Option<&str> {
        self.fields.iter().find_map(|(n, v)| match v {
            FieldValue::Sym(s) if *n == name => Some(*s),
            FieldValue::Text(s) if *n == name => Some(s.as_str()),
            _ => None,
        })
    }

    /// Renders the event as one JSONL line (no trailing newline).
    /// Field order is fixed, so equal events render to equal bytes.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str(&format!(
            "{{\"seq\":{},\"t\":{},\"dur\":{},\"layer\":\"{}\",\"kind\":\"{}\"",
            self.seq,
            self.at.as_nanos(),
            self.dur.as_nanos(),
            self.layer.label(),
            self.kind
        ));
        if let Some(SpanId(id)) = self.span {
            s.push_str(&format!(",\"span\":{id}"));
        }
        if let Some(SpanId(id)) = self.parent {
            s.push_str(&format!(",\"parent\":{id}"));
        }
        if !self.fields.is_empty() {
            s.push_str(",\"args\":{");
            for (i, (name, value)) in self.fields.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\":{}", json_escape(name), json_value(value)));
            }
            s.push('}');
        }
        s.push('}');
        s
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
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

fn json_value(v: &FieldValue) -> String {
    match v {
        FieldValue::U(u) => format!("{u}"),
        FieldValue::Sym(s) => format!("\"{}\"", json_escape(s)),
        FieldValue::Text(s) => format!("\"{}\"", json_escape(s)),
    }
}

/// An open context span (begun, not yet ended).
#[derive(Debug)]
struct OpenSpan {
    layer: TraceLayer,
    kind: &'static str,
    start: SimInstant,
    parent: Option<SpanId>,
    fields: Vec<Field>,
}

/// What a [`TraceHandle`]'s clones share: the ring, the whole-run
/// counters and the context-span bookkeeping.
#[derive(Debug)]
struct TraceState {
    capacity: usize,
    ring: VecDeque<TraceEvent>,
    next_seq: u64,
    next_span: u64,
    dropped: u64,
    counters: BTreeMap<(&'static str, &'static str), u64>,
    ctx: Vec<SpanId>,
    open: BTreeMap<u64, OpenSpan>,
}

impl TraceState {
    fn new(capacity: usize) -> TraceState {
        TraceState {
            capacity: capacity.max(1),
            ring: VecDeque::new(),
            next_seq: 0,
            next_span: 0,
            dropped: 0,
            counters: BTreeMap::new(),
            ctx: Vec::new(),
            open: BTreeMap::new(),
        }
    }

    fn new_span(&mut self) -> SpanId {
        self.next_span += 1;
        SpanId(self.next_span)
    }

    /// Stamps the record with the next sequence number, counts it and
    /// appends it to the ring, rotating the oldest event out when full.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per record field, passed through from the emitters"
    )]
    fn record(
        &mut self,
        layer: TraceLayer,
        kind: &'static str,
        at: SimInstant,
        dur: SimDuration,
        span: Option<SpanId>,
        parent: Option<SpanId>,
        fields: Vec<Field>,
    ) {
        *self.counters.entry((layer.label(), kind)).or_insert(0) += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceEvent {
            seq: self.next_seq,
            at,
            dur,
            layer,
            kind,
            span,
            parent,
            fields,
        });
        self.next_seq += 1;
    }
}

/// The ring-buffered event store plus whole-run aggregate counters,
/// behind a cloneable handle: every clone shares the one buffer — the
/// tracing analogue of [`crate::fault::FaultHandle`].
#[derive(Debug, Clone)]
pub struct TraceHandle {
    inner: Rc<RefCell<TraceState>>,
}

/// A handle is an identity, not a value: two are equal when they share
/// the one buffer.
impl PartialEq for TraceHandle {
    fn eq(&self, other: &Self) -> bool {
        let TraceHandle { inner } = self;
        Rc::ptr_eq(inner, &other.inner)
    }
}

impl TraceHandle {
    /// A new shared buffer keeping the newest `capacity` events (min 1).
    pub fn new(capacity: usize) -> TraceHandle {
        TraceHandle {
            inner: Rc::new(RefCell::new(TraceState::new(capacity))),
        }
    }

    /// A new shared buffer with [`DEFAULT_TRACE_CAPACITY`].
    pub fn with_default_capacity() -> TraceHandle {
        TraceHandle::new(DEFAULT_TRACE_CAPACITY)
    }

    /// Counts an occurrence without storing an event — for hooks too
    /// hot to keep in the ring (per-page checksums, hint deliveries).
    pub fn tick(&self, layer: TraceLayer, kind: &'static str) {
        self.tick_n(layer, kind, 1);
    }

    /// Counts `n` occurrences at once (batched hint deliveries).
    pub fn tick_n(&self, layer: TraceLayer, kind: &'static str, n: u64) {
        *self
            .inner
            .borrow_mut()
            .counters
            .entry((layer.label(), kind))
            .or_insert(0) += n;
    }

    /// Records an instant event under the current context span.
    pub fn event<F>(&self, layer: TraceLayer, kind: &'static str, at: SimInstant, fields: F)
    where
        F: FnOnce() -> Vec<Field>,
    {
        let mut st = self.inner.borrow_mut();
        let parent = st.ctx.last().copied();
        st.record(layer, kind, at, SimDuration::ZERO, None, parent, fields());
    }

    /// Records a completed span (known start and extent) under the
    /// current context span, returning its id.
    pub fn span<F>(
        &self,
        layer: TraceLayer,
        kind: &'static str,
        start: SimInstant,
        dur: SimDuration,
        fields: F,
    ) -> SpanId
    where
        F: FnOnce() -> Vec<Field>,
    {
        let mut st = self.inner.borrow_mut();
        let id = st.new_span();
        let parent = st.ctx.last().copied();
        st.record(layer, kind, start, dur, Some(id), parent, fields());
        id
    }

    /// Opens a context span: until the matching [`TraceHandle::ctx_end`],
    /// every emitted record carries this span as its parent. Used by
    /// tasks to bracket one work item (with its provenance fields).
    pub fn ctx_begin<F>(
        &self,
        layer: TraceLayer,
        kind: &'static str,
        at: SimInstant,
        fields: F,
    ) -> SpanId
    where
        F: FnOnce() -> Vec<Field>,
    {
        let mut st = self.inner.borrow_mut();
        let id = st.new_span();
        let open = OpenSpan {
            layer,
            kind,
            start: at,
            parent: st.ctx.last().copied(),
            fields: fields(),
        };
        st.open.insert(id.0, open);
        st.ctx.push(id);
        id
    }

    /// Closes a context span, emitting its record with the measured
    /// extent. Closing out of order is tolerated (the id is removed
    /// from wherever it sits in the context stack).
    pub fn ctx_end(&self, id: SpanId, at: SimInstant) {
        let mut st = self.inner.borrow_mut();
        st.ctx.retain(|&s| s != id);
        let Some(open) = st.open.remove(&id.0) else {
            return;
        };
        st.record(
            open.layer,
            open.kind,
            open.start,
            at.saturating_duration_since(open.start),
            Some(id),
            open.parent,
            open.fields,
        );
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.borrow().ring.iter().cloned().collect()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.borrow().ring.len()
    }

    /// True when no event is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped to ring rotation so far.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Whole-run aggregate counters as sorted `("layer.kind", count)`
    /// rows. Exact even after ring rotation.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .borrow()
            .counters
            .iter()
            .map(|(&(layer, kind), &n)| (format!("{layer}.{kind}"), n))
            .collect()
    }

    /// Forgets buffered events and counters (capacity is kept).
    pub fn clear(&self) {
        let mut st = self.inner.borrow_mut();
        *st = TraceState::new(st.capacity);
    }

    /// The JSONL dump: one event per line, oldest first, stable field
    /// order — byte-identical for byte-identical runs.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.inner.borrow().ring.iter() {
            out.push_str(&ev.to_jsonl());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimInstant = SimInstant::EPOCH;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn events_carry_context_parents() {
        let tr = TraceHandle::new(64);
        let item = tr.ctx_begin(TraceLayer::Task, "scrub.item", T0, || {
            vec![("src", "scan".into())]
        });
        tr.event(TraceLayer::Task, "scrub.verify", T0 + ms(1), || {
            vec![("block", 7u64.into())]
        });
        tr.ctx_end(item, T0 + ms(2));
        let evs = tr.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, "scrub.verify");
        assert_eq!(evs[0].parent, Some(item));
        assert_eq!(evs[1].kind, "scrub.item");
        assert_eq!(evs[1].span, Some(item));
        assert_eq!(evs[1].dur, ms(2));
        assert_eq!(evs[1].field_str("src"), Some("scan"));
    }

    #[test]
    fn ring_rotation_keeps_counters_exact() {
        let tr = TraceHandle::new(4);
        for i in 0..10u64 {
            tr.event(TraceLayer::Cache, "add", T0, || vec![("ino", i.into())]);
        }
        tr.tick(TraceLayer::Duet, "hint");
        assert_eq!(tr.len(), 4);
        assert_eq!(tr.dropped(), 6);
        let counters = tr.counters();
        assert_eq!(
            counters,
            vec![("cache.add".to_string(), 10), ("duet.hint".to_string(), 1)]
        );
        // The ring keeps the newest events.
        assert_eq!(tr.events()[0].field_u64("ino"), Some(6));
    }

    #[test]
    fn jsonl_is_stable_and_escaped() {
        let tr = TraceHandle::new(16);
        tr.span(TraceLayer::Disk, "io", T0 + ms(1), ms(3), || {
            vec![
                ("kind", "read".into()),
                ("block", 42u64.into()),
                ("path", "a\"b\\c".to_string().into()),
            ]
        });
        let dump = tr.dump_jsonl();
        assert_eq!(
            dump,
            "{\"seq\":0,\"t\":1000000,\"dur\":3000000,\"layer\":\"disk\",\"kind\":\"io\",\
             \"span\":1,\"args\":{\"kind\":\"read\",\"block\":42,\"path\":\"a\\\"b\\\\c\"}}\n"
        );
    }

    #[test]
    fn handle_shares_one_buffer_and_clear_resets() {
        let tr = TraceHandle::new(16);
        let tr2 = tr.clone();
        tr.event(TraceLayer::Btrfs, "submit", T0, Vec::new);
        tr2.event(TraceLayer::Btrfs, "submit", T0, Vec::new);
        assert_eq!(tr.len(), 2);
        tr.clear();
        assert!(tr2.is_empty());
        assert!(tr2.counters().is_empty());
        assert_eq!(tr2.dump_jsonl(), "");
    }

    #[test]
    fn out_of_order_ctx_end_is_tolerated() {
        let tr = TraceHandle::new(16);
        let a = tr.ctx_begin(TraceLayer::Task, "a", T0, Vec::new);
        let b = tr.ctx_begin(TraceLayer::Task, "b", T0, Vec::new);
        tr.ctx_end(a, T0 + ms(1));
        // `b` is still the context even though its parent closed first.
        tr.event(TraceLayer::Task, "x", T0, Vec::new);
        tr.ctx_end(b, T0 + ms(2));
        tr.ctx_end(b, T0 + ms(3)); // double-end: no-op
        let evs = tr.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[1].parent, Some(b));
        assert_eq!(evs[2].span, Some(b));
    }

    #[test]
    fn layer_labels_are_unique() {
        let mut labels: Vec<&str> = TraceLayer::ALL.iter().map(|l| l.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), TraceLayer::ALL.len());
    }
}
