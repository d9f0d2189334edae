//! Answer checks: the benchmark's own record of what it ingested, and the
//! single-shard reference assembly.

use crate::util::Rng;
use deepflow::server::assemble::{assemble_trace_reference, AssembleConfig};
use deepflow::storage::{SpanQuery, SpanStore};
use deepflow::types::trace::Trace;
use deepflow::types::{Span, SpanId, TimeNs};
use std::collections::BTreeMap;

/// Which filter a span-list query applies besides its time window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListFilter {
    /// Window only.
    None,
    /// Spans of one endpoint.
    Endpoint(String),
    /// Error spans only.
    ErrorsOnly,
}

impl ListFilter {
    /// The filter of the `i`-th span list: a fixed cycle of 20 — half
    /// unfiltered, 7 by endpoint (drawn by `rng`), 3 errors only — so every
    /// seed gets the same mix.
    pub fn nth(i: usize, rng: &mut Rng, endpoints: &[String]) -> Self {
        const CYCLE: &[u8; 20] = b"NENNENEXNENNENEXNENX";
        match CYCLE[i % CYCLE.len()] {
            b'E' => ListFilter::Endpoint(
                endpoints[rng.range(0, endpoints.len() as u64) as usize].clone(),
            ),
            b'X' => ListFilter::ErrorsOnly,
            _ => ListFilter::None,
        }
    }

    /// The store query for `[from, to)` under this filter, capped at `limit`.
    pub fn query(&self, from: TimeNs, to: TimeNs, limit: usize) -> SpanQuery {
        let mut q = SpanQuery::window(from, to);
        q.limit = limit;
        match self {
            ListFilter::None => {}
            ListFilter::Endpoint(e) => q.endpoint = Some(e.clone()),
            ListFilter::ErrorsOnly => q.errors_only = true,
        }
        q
    }
}

/// The generator's own count of what it ingested: request time, endpoint
/// and error flag of every span, so a span list's row count can be
/// checked without asking the system under test.
#[derive(Debug, Default, Clone)]
pub struct ListIndex {
    endpoints: BTreeMap<String, u16>,
    names: Vec<String>,
    rows: Vec<(u64, u16, bool)>,
    sorted: bool,
}

impl ListIndex {
    /// Record ingested spans.
    pub fn record(&mut self, spans: &[Span]) {
        for s in spans {
            let next = self.names.len() as u16;
            let ep = *self.endpoints.entry(s.endpoint.clone()).or_insert_with(|| {
                self.names.push(s.endpoint.clone());
                next
            });
            self.rows
                .push((s.req_time.as_nanos(), ep, s.status.is_error()));
        }
        self.sorted = false;
    }

    /// Endpoints seen, in a fixed (sorted) order.
    pub fn endpoints(&self) -> Vec<String> {
        self.endpoints.keys().cloned().collect()
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows a query for `[from, to)` under `filter`, capped at `limit`,
    /// must return.
    pub fn expected(
        &mut self,
        from: TimeNs,
        to: TimeNs,
        filter: &ListFilter,
        limit: usize,
    ) -> usize {
        if !self.sorted {
            self.rows.sort_unstable();
            self.sorted = true;
        }
        let lo = self.rows.partition_point(|r| r.0 < from.as_nanos());
        let hi = self.rows.partition_point(|r| r.0 < to.as_nanos());
        let ep = match filter {
            ListFilter::Endpoint(e) => Some(self.endpoints.get(e).copied()),
            _ => None,
        };
        let n = self.rows[lo..hi]
            .iter()
            .filter(|r| match (filter, ep) {
                (ListFilter::Endpoint(_), Some(id)) => Some(r.1) == id,
                (ListFilter::ErrorsOnly, _) => r.2,
                _ => true,
            })
            .count();
        n.min(limit)
    }
}

/// A trace reduced to what assembly decides: each member and its parent,
/// sorted by member id.
pub type Shape = Vec<(SpanId, Option<SpanId>)>;

/// The [`Shape`] of `trace`.
pub fn shape(trace: &Trace) -> Shape {
    let mut v: Vec<_> = trace
        .spans
        .iter()
        .map(|s| (s.span.span_id, s.parent))
        .collect();
    v.sort();
    v
}

/// The reference: one single-shard store holding every span in ingest
/// order, so its ids (row + 1) equal the ids the system under test
/// assigned, answered by the reference formulation of Algorithm 1.
pub struct Reference {
    store: SpanStore,
    cfg: AssembleConfig,
}

impl Reference {
    /// Load `spans` (in ingest order) into a fresh store.
    pub fn new(spans: impl IntoIterator<Item = Span>) -> Self {
        let mut store = SpanStore::new();
        for mut s in spans {
            s.span_id = SpanId(0);
            store.insert(s);
        }
        Reference {
            store,
            cfg: AssembleConfig::default(),
        }
    }

    /// Spans loaded.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The reference trace's shape from `start`.
    pub fn shape(&self, start: SpanId) -> Shape {
        shape(&assemble_trace_reference(&self.store, start, &self.cfg))
    }
}
