//! The traced run's span recorder.
//!
//! Spans are recorded in the benchmark's own code, around each call into
//! a layer: a name, a start, an end, the enclosing span, and a group id
//! shared by every span of one tick or one query. They stay in memory
//! and are written out once, when the run ends. A disabled tracer records
//! nothing, so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer call, named after the module it enters.
    pub name: &'static str,
    /// Tick or query this span belongs to.
    pub group: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
}

/// Open span handle returned by [`Tracer::begin`].
#[must_use]
#[derive(Debug)]
pub struct Open(Option<usize>);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    group: u64,
    next_group: u64,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus time covered by children), ns.
    pub self_ns: u64,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing. `group_base`
    /// namespaces group ids so tracers of different threads never share
    /// one.
    pub fn new(enabled: bool, group_base: u64) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            group: group_base,
            next_group: group_base,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new group (one tick or one query).
    pub fn new_group(&mut self) {
        self.next_group += 1;
        self.group = self.next_group;
    }

    /// Open a span named `name` under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(SpanRec {
            name,
            group: self.group,
            parent: self.stack.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else {
            return;
        };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Per-name count, duration and self time. Children of one span run
    /// one after another on this thread, so the time they cover is the
    /// sum of their durations.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Fold another thread's spans in (its indices shift past ours; its
    /// epoch is re-based onto ours).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.group, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 0);
        t.new_group();
        let outer = t.begin("outer");
        let a = t.begin("a");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        let b = t.begin("b");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(b);
        t.end(outer);
        let totals = t.totals();
        let o = totals["outer"];
        let a = totals["a"];
        let b = totals["b"];
        assert_eq!(o.self_ns, o.total_ns - a.total_ns - b.total_ns);
        assert_eq!(a.self_ns, a.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans().iter().all(|s| s.group == 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 0);
        let s = t.begin("x");
        t.end(s);
        assert!(t.spans().is_empty());
    }
}
