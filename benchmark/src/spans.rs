//! In-memory spans around calls into the simulator's layers.
//!
//! The traced drivers (`mirror.rs`) push one [`Span`] per call into a
//! layer's public API. Spans stay in a preallocated vector while the
//! run is measured and are aggregated once it has ended: per span name,
//! the call count, the total time, and the *self* time — total minus
//! the part of it covered by direct child spans.

use bench::harness::Stopwatch;

/// Index of a span's name in the recorder's name table.
pub type NameId = u8;

const NO_PARENT: u32 = u32::MAX;

/// One timed call: `(name, parent, start_ns, end_ns)`, times relative
/// to the recorder's start.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: NameId,
    /// Index of the span that made this call, or none for a root.
    parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn parent(&self) -> Option<usize> {
        (self.parent != NO_PARENT).then_some(self.parent as usize)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::begin`]; give it back to
/// [`Recorder::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended has no duration"]
pub struct Open(u32);

/// Records spans against one stopwatch.
pub struct Recorder {
    clock: Stopwatch,
    names: &'static [&'static str],
    spans: Vec<Span>,
    /// The innermost open span: parent of the next `begin`.
    current: u32,
}

impl Recorder {
    /// A recorder for spans named by indices into `names`, with room
    /// for `capacity` spans before the vector has to grow mid-run.
    pub fn new(names: &'static [&'static str], capacity: usize) -> Recorder {
        assert!(names.len() <= usize::from(NameId::MAX) + 1);
        Recorder {
            clock: Stopwatch::start(),
            names,
            spans: Vec::with_capacity(capacity),
            current: NO_PARENT,
        }
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed_ns() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: NameId) -> Open {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.current,
            start_ns,
            end_ns: start_ns,
        });
        self.current = id;
        Open(id)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        assert_eq!(open.0, self.current, "spans must close innermost-first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        self.current = span.parent;
    }

    /// Times `f` as one span.
    pub fn time<R>(&mut self, name: NameId, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, in name-table order.
    pub fn aggregate(&self) -> Vec<NameTotals> {
        assert_eq!(self.current, NO_PARENT, "aggregate with a span still open");
        let mut totals: Vec<NameTotals> = self
            .names
            .iter()
            .map(|&name| NameTotals {
                name,
                calls: 0,
                total_ns: 0,
                child_ns: 0,
            })
            .collect();
        for span in &self.spans {
            let t = &mut totals[usize::from(span.name)];
            t.calls += 1;
            t.total_ns += span.duration_ns();
            // Each span is charged to its direct parent exactly once;
            // grandchildren are already inside the child's duration.
            if let Some(p) = span.parent() {
                totals[usize::from(self.spans[p].name)].child_ns += span.duration_ns();
            }
        }
        totals
    }

    /// The raw spans as CSV (`--dump-spans`).
    pub fn dump_csv(&self) -> String {
        let mut out = String::from("id,name,parent,start_ns,end_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent().map(|p| p.to_string()).unwrap_or_default();
            out.push_str(&format!(
                "{id},{},{parent},{},{}\n",
                self.names[usize::from(s.name)],
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    /// Time covered by direct children of these spans.
    pub child_ns: u64,
}

impl NameTotals {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Total minus children. Children run strictly inside their
    /// parent on one thread, so this cannot underflow.
    pub fn self_s(&self) -> f64 {
        (self.total_ns - self.child_ns) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["root", "mid", "leaf"];

    /// Builds a recorder whose spans carry hand-written times, so the
    /// arithmetic is checked without a clock.
    fn scripted(spans: &[(NameId, Option<u32>, u64, u64)]) -> Recorder {
        let mut r = Recorder::new(NAMES, spans.len());
        for &(name, parent, start_ns, end_ns) in spans {
            r.spans.push(Span {
                name,
                parent: parent.unwrap_or(NO_PARENT),
                start_ns,
                end_ns,
            });
        }
        r
    }

    #[test]
    fn children_are_subtracted_once_and_only_from_their_direct_parent() {
        // root [0,100] > mid [10,70] > leaf [20,50]; root > leaf [80,90]
        let r = scripted(&[
            (0, None, 0, 100),
            (1, Some(0), 10, 70),
            (2, Some(1), 20, 50),
            (2, Some(0), 80, 90),
        ]);
        let t = r.aggregate();
        assert_eq!((t[0].calls, t[0].total_ns, t[0].child_ns), (1, 100, 70));
        assert_eq!((t[1].calls, t[1].total_ns, t[1].child_ns), (1, 60, 30));
        assert_eq!((t[2].calls, t[2].total_ns, t[2].child_ns), (2, 40, 0));
        // Self times partition the root: 30 + 30 + 40 = 100.
        let self_ns: u64 = t.iter().map(|n| n.total_ns - n.child_ns).sum();
        assert_eq!(self_ns, 100);
        assert_eq!(t[1].self_s(), 30e-9);
    }

    #[test]
    fn begin_end_nest_and_restore_the_parent() {
        let mut r = Recorder::new(NAMES, 8);
        let root = r.begin(0);
        let mid = r.begin(1);
        r.time(2, || ());
        r.end(mid);
        r.time(2, || ());
        r.end(root);
        let parents: Vec<Option<usize>> = r.spans().iter().map(Span::parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        for s in r.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
        let t = r.aggregate();
        assert!(t[0].total_ns >= t[0].child_ns);
        assert!(r
            .dump_csv()
            .starts_with("id,name,parent,start_ns,end_ns\n0,root,,"));
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut r = Recorder::new(NAMES, 4);
        let root = r.begin(0);
        let _mid = r.begin(1);
        r.end(root);
    }
}
