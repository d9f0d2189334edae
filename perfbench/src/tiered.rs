//! `tiered-mixed`: storage tiers, with writes beside reads.
//!
//! Set-up captures a Bookinfo corpus (~100 RPS × 60 virtual s) plus the
//! traffic that follows it, re-encodes the corpus into bulk DFW1 batches
//! of tens of thousands of spans, and builds a 2-shard
//! `ConcurrentShardedStore` with tiering and a buffer pool far smaller
//! than the cold set.
//!
//! Phase 1 bulk-loads the corpus one batch per round — `ingest_wire`,
//! `flush`, then `spill_before` down to a 4-bucket hot horizon behind the
//! data loaded so far. Phase 2 runs two threads side by
//! side: an open-loop writer shipping the following traffic in
//! agent-sized batches at a fixed rate (each timed from its due time
//! until `flush` makes it visible), and a closed-loop reader issuing span
//! lists and traces over cold and hot windows, some traces from repeated
//! starts (cache hits) and some from the live region being written.

use crate::check::{shape, ListFilter, ListIndex, Reference, Shape};
use crate::corpus::{
    batch_totals, capture_bookinfo, encode, encode_batches, tick_time, Batch, Capture,
};
use crate::harness::{
    lateness_note, run_passes, timed_setup, Pass, PassCounts, Tally, FRESHNESS_MS, LIST_US,
    TRACE_US,
};
use crate::report::Outcome;
use crate::tracer::Tracer;
use crate::util::{fnv, peak_rss_mb, Rng, Rounds};
use deepflow::server::{ConcurrentConfig, ConcurrentShardedStore};
use deepflow::storage::{BufferPoolConfig, ShardPolicy, TierConfig};
use deepflow::types::{wire, DurationNs, SpanId, TimeNs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Store shards.
const SHARDS: usize = 2;
/// Length of one phase-2 statistics round.
const ROUND: Duration = Duration::from_millis(250);
/// The reader's pause between queries: with it, reader, writer and shard
/// workers do not oversubscribe two cores, and the reader still holds a
/// shard lock most of the time, so most writes wait behind a read.
const THINK: Duration = Duration::from_micros(500);
/// Time buckets are 1 s (the default shard policy).
const BUCKET_NS: u64 = 1_000_000_000;
/// Group-id bases of the writer's and the reader's tracers.
const WRITER_GROUPS: u64 = 1 << 40;
const READER_GROUPS: u64 = 2 << 40;

/// Sizes of one pass.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Offered load of the captured app (requests per virtual second).
    pub rps: f64,
    /// Ticks of corpus (bulk-loaded in phase 1).
    pub corpus_ticks: u64,
    /// Ticks of following traffic (written in phase 2).
    pub live_ticks: u64,
    /// Bulk batch size range, spans.
    pub bulk_min: usize,
    /// Bulk batch size range, spans.
    pub bulk_max: usize,
    /// Buffer-pool frames.
    pub frames: usize,
    /// Buckets (1 s each) kept hot by the spill.
    pub hot_buckets: u64,
    /// Writer's interval between batches.
    pub writer_interval: Duration,
    /// Span-list page size.
    pub page: usize,
    /// Span-list window width.
    pub window: DurationNs,
    /// Traces per pass compared with the reference assembly.
    pub checked_traces: usize,
    /// Queries of each kind whose answers feed the determinism counts.
    pub counted_queries: usize,
    /// Minimum passes per run.
    pub min_passes: usize,
}

impl Plan {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Plan {
            rps: 100.0,
            corpus_ticks: 600,
            live_ticks: 80,
            bulk_min: 20_000,
            bulk_max: 40_000,
            frames: 16,
            hot_buckets: 4,
            writer_interval: Duration::from_millis(12),
            page: 1000,
            window: DurationNs::from_secs(1),
            checked_traces: 16,
            counted_queries: 40,
            min_passes: 3,
        }
    }

    /// Small sizes for tests.
    pub fn small() -> Self {
        Plan {
            rps: 50.0,
            corpus_ticks: 80,
            live_ticks: 10,
            bulk_min: 500,
            bulk_max: 1500,
            frames: 4,
            hot_buckets: 2,
            writer_interval: Duration::from_millis(2),
            page: 100,
            window: DurationNs::from_millis(500),
            checked_traces: 6,
            counted_queries: 10,
            min_passes: 2,
        }
    }
}

/// Counts that depend on the seed only, never on timing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Spans shipped (corpus + live).
    pub spans: u64,
    /// DFW1 bytes shipped (bulk + live batches).
    pub wire_bytes: u64,
    /// Spans spilled cold.
    pub cold_spans: u64,
    /// Segment bytes spilled.
    pub cold_bytes: u64,
    /// Spans over the first counted corpus trace answers.
    pub trace_spans: u64,
    /// Rows over the first counted span-list answers.
    pub list_rows: u64,
    /// Spans the agents built during capture (sys + net).
    pub agent_spans: u64,
    /// Fingerprint of the counted part of the query stream.
    pub stream: u64,
}

impl PassCounts for Counts {
    fn invariant(&self) -> Self {
        Counts {
            trace_spans: 0,
            list_rows: 0,
            stream: 0,
            ..self.clone()
        }
    }
}

/// What the run knows about the corpus, from the first capture (every
/// pass captures the same app with the same world seed).
struct Known {
    index: ListIndex,
    /// Corpus span ids (1-based) with a request time in the cold region.
    cold_ids: (u64, u64),
    /// Corpus span ids in the hot region.
    hot_ids: (u64, u64),
    cold_window: (u64, u64),
    hot_window: (u64, u64),
    corpus_spans: u64,
}

/// Id range of the corpus spans (in ship order) whose request time lies
/// in `[lo, hi)`, from the first to the last such span: spans ship
/// roughly in time order.
fn id_range(cap: &Capture, corpus_ticks: u64, lo: u64, hi: u64) -> (u64, u64) {
    let mut first = None;
    let mut last = 0;
    let corpus = cap
        .polls
        .iter()
        .filter(|p| p.tick <= corpus_ticks)
        .flat_map(|p| &p.spans);
    for (i, s) in corpus.enumerate() {
        let t = s.req_time.as_nanos();
        if t >= lo && t < hi {
            first.get_or_insert(i as u64 + 1);
            last = i as u64 + 1;
        }
    }
    (first.unwrap_or(1), last.max(1))
}

impl Known {
    fn new(plan: &Plan, cap: &Capture) -> Self {
        let corpus_end = tick_time(plan.corpus_ticks).as_nanos();
        let watermark = corpus_end - plan.hot_buckets * BUCKET_NS;
        let mut index = ListIndex::default();
        for p in cap.polls.iter().filter(|p| p.tick <= plan.corpus_ticks) {
            index.record(&p.spans);
        }
        // Live spans answer corpus windows too if their request started
        // before the cut; keep windows clear of the earliest one.
        let earliest_live = cap
            .polls
            .iter()
            .filter(|p| p.tick > plan.corpus_ticks)
            .flat_map(|p| &p.spans)
            .map(|s| s.req_time.as_nanos())
            .min()
            .unwrap_or(corpus_end)
            .min(corpus_end);
        let margin = 500_000_000;
        let cold_window = (0, watermark - margin);
        let hot_window = (watermark, earliest_live - margin);
        Known {
            cold_ids: id_range(cap, plan.corpus_ticks, cold_window.0, cold_window.1),
            hot_ids: id_range(cap, plan.corpus_ticks, hot_window.0, hot_window.1),
            cold_window,
            hot_window,
            corpus_spans: index.len() as u64,
            index,
        }
    }
}

/// What a trace query's start is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StartKind {
    /// A corpus span in the spilled region.
    Cold,
    /// A corpus span in the hot (resident) region.
    Hot,
    /// A span the writer has shipped (its trace may still be growing).
    Live,
    /// One of the last 8 starts (a cache hit unless writes invalidated it).
    Repeat,
}

/// The reader's query mix, cycled in this order so every seed gets the
/// same mix (the seed picks windows, filters and starts): every third
/// query is a span list, alternating cold and hot windows; the traces
/// cycle through this pattern.
const TRACE_KINDS: [StartKind; 8] = [
    StartKind::Cold,
    StartKind::Repeat,
    StartKind::Hot,
    StartKind::Cold,
    StartKind::Live,
    StartKind::Hot,
    StartKind::Repeat,
    StartKind::Cold,
];

/// What phase 2's two threads share.
struct Phase2<'a> {
    plan: &'a Plan,
    store: &'a ConcurrentShardedStore,
    known: &'a Known,
    /// Round index of phase 2's first round (after phase 1's rounds).
    first_round: usize,
    start: Instant,
    /// Spans visible so far (corpus + live batches flushed).
    visible: AtomicU64,
    writer_done: AtomicBool,
    traced: bool,
}

impl Phase2<'_> {
    /// The statistics round `t` falls in.
    fn round_of(&self, t: Instant) -> usize {
        self.first_round
            + (t.saturating_duration_since(self.start).as_nanos() / ROUND.as_nanos()) as usize
    }
}

/// The writer's side of phase 2.
struct WriterOut {
    tracer: Tracer,
    rounds: Rounds,
    tally: Tally,
    checks: Outcome,
}

/// Ship the live batches on a fixed schedule, each timed from its due
/// time until `flush` makes it visible; probe host speed in the gaps.
fn writer(ph: &Phase2<'_>, live: &[Batch]) -> WriterOut {
    let (plan, store) = (ph.plan, ph.store);
    let mut tr = Tracer::new(ph.traced, WRITER_GROUPS);
    let mut rounds = Rounds::default();
    let mut tally = Tally::default();
    let mut checks = Outcome::default();
    let mut shipped = 0u64;
    for (i, b) in live.iter().enumerate() {
        let due = ph.start + plan.writer_interval * i as u32;
        if due > Instant::now() + plan.writer_interval / 4 {
            rounds.probe(ph.round_of(Instant::now()));
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        tally.push(
            "lateness_ms",
            start.saturating_duration_since(due).as_secs_f64() * 1e3,
        );
        tr.new_group();
        let root = tr.begin("live_batch");
        let ok = if tr.enabled() {
            let s = tr.begin("df_types.wire.decode");
            let decoded = wire::decode_batch(&b.bytes);
            tr.end(s);
            decoded.ok().and_then(|spans| {
                tally.add("live_spans", spans.len() as f64);
                let s = tr.begin("df_server.concurrent.insert");
                let r = store.try_insert_batch(spans);
                tr.end(s);
                r.ok()
            })
        } else {
            store.ingest_wire(&b.bytes).ok()
        };
        let s = tr.begin("df_server.concurrent.flush");
        let t_flush = Instant::now();
        let flushed = store.try_flush();
        tally.push("flush_us", t_flush.elapsed().as_secs_f64() * 1e6);
        tr.end(s);
        tr.end(root);
        let done = Instant::now();
        checks.check(
            ok.as_ref().map(Vec::len) == Some(b.spans) && flushed.is_ok(),
            || format!("live batch {i} of {} spans not ingested", b.spans),
        );
        shipped += b.spans as u64;
        ph.visible
            .store(ph.known.corpus_spans + shipped, Ordering::Release);
        rounds.sample(
            ph.round_of(due),
            FRESHNESS_MS,
            (done - due).as_secs_f64() * 1e3,
        );
    }
    WriterOut {
        tracer: tr,
        rounds,
        tally,
        checks,
    }
}

/// The reader's side of phase 2.
struct ReaderOut {
    tracer: Tracer,
    rounds: Rounds,
    tally: Tally,
    checks: Outcome,
    counts: Counts,
    to_check: Vec<(SpanId, Shape)>,
}

/// Closed-loop span lists and traces until the writer is done (and at
/// least until the counted queries are in, so counts never depend on
/// timing).
fn reader(ph: &Phase2<'_>, seed: u64, n: usize) -> ReaderOut {
    let (plan, store, k) = (ph.plan, ph.store, ph.known);
    let mut tr = Tracer::new(ph.traced, READER_GROUPS);
    let mut rounds = Rounds::default();
    let mut tally = Tally::default();
    let mut checks = Outcome::default();
    let mut counts = Counts::default();
    let mut to_check = Vec::new();
    let mut rng = Rng::for_pass(seed, 3, n);
    // The index sorts lazily, which needs a copy of its own.
    let mut index = k.index.clone();
    let endpoints = index.endpoints();
    let mut recent: Vec<SpanId> = Vec::new();
    let (mut lists, mut corpus_traces, mut traces) = (0usize, 0usize, 0usize);
    let mut query = 0usize;
    while !ph.writer_done.load(Ordering::Acquire)
        || lists < plan.counted_queries
        || corpus_traces < plan.counted_queries
    {
        tally.add("queries", 1.0);
        tr.new_group();
        if query.is_multiple_of(3) {
            let (lo, hi) = if query.is_multiple_of(2) {
                k.cold_window
            } else {
                k.hot_window
            };
            let from = TimeNs(rng.range(lo, hi.saturating_sub(plan.window.as_nanos()).max(lo + 1)));
            let to = TimeNs(from.as_nanos() + plan.window.as_nanos());
            let filter = ListFilter::nth(query / 3, &mut rng, &endpoints);
            let q = filter.query(from, to, plan.page);
            let expected = index.expected(from, to, &filter, plan.page);
            let s = tr.begin("df_storage.query");
            let t0 = Instant::now();
            let rows = store.query(&q);
            let dt = t0.elapsed();
            tr.end(s);
            rounds.sample(ph.round_of(Instant::now()), LIST_US, dt.as_secs_f64() * 1e6);
            tally.push("store_query_us", dt.as_secs_f64() * 1e6);
            tally.add("store_rows", rows.len() as f64);
            checks.check(rows.len() == expected, || {
                format!(
                    "span list {q:?}: {} rows, generator counted {expected}",
                    rows.len()
                )
            });
            if lists < plan.counted_queries {
                lists += 1;
                counts.list_rows += rows.len() as u64;
                counts.stream = fnv(fnv(counts.stream, from.as_nanos()), rows.len() as u64);
            }
        } else {
            let kind = TRACE_KINDS[traces % TRACE_KINDS.len()];
            traces += 1;
            let draw = rng.next_u64();
            let live_now = ph.visible.load(Ordering::Acquire) - k.corpus_spans;
            let corpus = |(lo, hi): (u64, u64)| SpanId(lo + draw % (hi - lo + 1));
            // Only live and repeated starts depend on what is visible by
            // then, and those never feed the counts.
            let start = match kind {
                StartKind::Cold => corpus(k.cold_ids),
                StartKind::Hot => corpus(k.hot_ids),
                StartKind::Live if live_now > 0 => SpanId(k.corpus_spans + 1 + draw % live_now),
                StartKind::Live => corpus(k.hot_ids),
                StartKind::Repeat => recent
                    .get((draw % recent.len().max(1) as u64) as usize)
                    .copied()
                    .unwrap_or_else(|| corpus(k.hot_ids)),
            };
            let s = tr.begin("df_server.concurrent.query_trace");
            let t0 = Instant::now();
            let trace = store.query_trace(start);
            let dt = t0.elapsed();
            tr.end(s);
            rounds.sample(
                ph.round_of(Instant::now()),
                TRACE_US,
                dt.as_secs_f64() * 1e6,
            );
            let has_start = trace.spans.iter().any(|s| s.span.span_id == start);
            checks.check(has_start, || {
                format!("trace from {start:?} ({kind:?}) lacks its start")
            });
            if matches!(kind, StartKind::Cold | StartKind::Hot) {
                if corpus_traces < plan.counted_queries {
                    corpus_traces += 1;
                    counts.trace_spans += trace.len() as u64;
                    counts.stream = fnv(counts.stream, start.raw());
                }
                if to_check.len() < plan.checked_traces {
                    to_check.push((start, shape(&trace)));
                }
            }
            if recent.len() >= 8 {
                recent.remove(0);
            }
            recent.push(start);
        }
        query += 1;
        // Every fourth pause probes host speed.
        if query.is_multiple_of(4) {
            rounds.probe(ph.round_of(Instant::now()));
        }
        std::thread::sleep(THINK);
    }
    ReaderOut {
        tracer: tr,
        rounds,
        tally,
        checks,
        counts,
        to_check,
    }
}

/// What a run carries from pass to pass.
struct RunState {
    /// Spill directory.
    dir: PathBuf,
    /// Corpus facts, from the first pass's capture.
    known: Option<Known>,
    /// Sampled corpus traces, for the reference check after the run.
    to_check: Vec<(SpanId, Shape)>,
    /// The last pass's batches in ingest order (bulk, then live).
    shipped: Vec<Batch>,
}

/// Run pass `n`; `traced` records layer spans.
fn pass(plan: &Plan, seed: u64, n: usize, traced: bool, st: &mut RunState) -> Pass<Counts> {
    let dir = st.dir.as_path();
    let mut tr = Tracer::new(traced, 0);
    let mut checks = Outcome::default();
    let mut tally = Tally::default();
    let mut counts = Counts::default();

    // ---- Set-up: capture, re-encode, build the store ----
    let ((cap, bulk, live, store), setup_s) = timed_setup(|| {
        let cap = capture_bookinfo(plan.rps, plan.corpus_ticks + plan.live_ticks, &mut tr);
        let mut rng = Rng::new(seed, 2);
        let corpus = cap
            .polls
            .iter()
            .filter(|p| p.tick <= plan.corpus_ticks)
            .flat_map(|p| &p.spans);
        let bulk = encode_batches(corpus, plan.bulk_min, plan.bulk_max, &mut rng, &mut tr);
        let live: Vec<Batch> = cap
            .polls
            .iter()
            .filter(|p| p.tick > plan.corpus_ticks && !p.spans.is_empty())
            .map(|p| encode(&p.spans, &mut tr))
            .collect();
        let _ = std::fs::remove_dir_all(dir);
        let tier = TierConfig::new(dir)
            .with_pool(BufferPoolConfig::with_frames(plan.frames))
            .with_hot_buckets(plan.hot_buckets);
        let store = ConcurrentShardedStore::with_tiering(
            ShardPolicy::with_shards(SHARDS),
            ConcurrentConfig::default(),
            tier,
        );
        (cap, bulk, live, store)
    });
    tally.add("capture_spans", cap.span_count() as f64);
    tally.add("capture_polls", cap.polls_nonempty as f64);
    tally.add("capture_incomplete", cap.agent.incomplete_spans as f64);
    counts.agent_spans = cap.agent.sys_spans + cap.agent.net_spans;
    let (bulk_bytes, bulk_spans) = batch_totals(&bulk);
    let (live_bytes, live_spans) = batch_totals(&live);
    counts.spans = bulk_spans + live_spans;
    counts.wire_bytes = bulk_bytes + live_bytes;
    let k: &Known = st.known.get_or_insert_with(|| Known::new(plan, &cap));
    drop(cap);

    // ---- Phase 1: one bulk batch per round, flushed, then spilled ----
    let mut rounds = Rounds::default();
    let t_timed = Instant::now();
    let mut newest = 0u64;
    for (round, b) in bulk.iter().enumerate() {
        rounds.probe(round);
        newest = newest.max(b.max_req_ns);
        let watermark =
            TimeNs((newest / BUCKET_NS).saturating_sub(plan.hot_buckets - 1) * BUCKET_NS);
        tr.new_group();
        let root = tr.begin("bulk_batch");
        let t0 = Instant::now();
        let ok = if tr.enabled() {
            let s = tr.begin("df_types.wire.decode");
            let decoded = wire::decode_batch(&b.bytes);
            tr.end(s);
            decoded.ok().and_then(|spans| {
                tally.add("bulk_spans", spans.len() as f64);
                let s = tr.begin("df_server.concurrent.insert");
                let r = store.try_insert_batch(spans);
                tr.end(s);
                r.ok()
            })
        } else {
            store.ingest_wire(&b.bytes).ok()
        };
        let s = tr.begin("df_server.concurrent.flush");
        let t_flush = Instant::now();
        let flushed = store.try_flush();
        tally.push("flush_us", t_flush.elapsed().as_secs_f64() * 1e6);
        tr.end(s);
        let s = tr.begin("df_storage.spill");
        let t_spill = Instant::now();
        let spill = store.spill_before(watermark);
        tally.add("spill_ns", t_spill.elapsed().as_nanos() as f64);
        tr.end(s);
        let busy = t0.elapsed();
        tr.end(root);
        checks.check(
            ok.as_ref().map(Vec::len) == Some(b.spans) && flushed.is_ok(),
            || format!("bulk batch of {} spans not ingested", b.spans),
        );
        checks.check(spill.is_ok(), || format!("spill failed: {spill:?}"));
        let spill = spill.unwrap_or_default();
        counts.cold_spans += spill.spans as u64;
        counts.cold_bytes += spill.bytes;
        rounds.work(round, b.spans as f64, busy);
    }
    tally.add("cold_spans", counts.cold_spans as f64);

    // ---- Phase 2: open-loop writer beside a closed-loop reader ----
    let stats0 = store.stats();
    let pool0 = store.buffer_pool().map(|p| p.stats()).unwrap_or_default();
    let ph = Phase2 {
        plan,
        store: &store,
        known: k,
        first_round: rounds.next_round(),
        start: Instant::now(),
        visible: AtomicU64::new(k.corpus_spans),
        writer_done: AtomicBool::new(false),
        traced,
    };
    let (w, r) = std::thread::scope(|scope| {
        let (ph, live) = (&ph, &live);
        let w = scope.spawn(move || {
            let out = writer(ph, live);
            ph.writer_done.store(true, Ordering::Release);
            out
        });
        let r = scope.spawn(move || reader(ph, seed, n));
        (
            w.join().expect("writer thread panicked"),
            r.join().expect("reader thread panicked"),
        )
    });
    let timed = t_timed.elapsed();
    let peak_rss_mb = peak_rss_mb();
    let stats1 = store.stats();
    let pool1 = store.buffer_pool().map(|p| p.stats()).unwrap_or_default();
    tally.add(
        "trace_queries",
        (stats1.trace_queries - stats0.trace_queries) as f64,
    );
    tally.add("cache_hits", (stats1.cache_hits - stats0.cache_hits) as f64);
    tally.add(
        "cache_stale",
        (stats1.cache_stale_hits - stats0.cache_stale_hits) as f64,
    );
    tally.add(
        "cache_invalidated",
        (stats1.cache_invalidations - stats0.cache_invalidations) as f64,
    );
    tally.add("pool_hits", (pool1.hits - pool0.hits) as f64);
    tally.add("pool_misses", (pool1.misses - pool0.misses) as f64);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);

    for side in [w.checks, r.checks] {
        checks.absorb_checks(&side);
    }
    rounds.merge(w.rounds);
    rounds.merge(r.rounds);
    tally.absorb(w.tally);
    tally.absorb(r.tally);
    tr.absorb(w.tracer);
    tr.absorb(r.tracer);
    counts.trace_spans = r.counts.trace_spans;
    counts.list_rows = r.counts.list_rows;
    counts.stream = r.counts.stream;
    st.to_check.extend(r.to_check);
    st.shipped = bulk.into_iter().chain(live).collect();
    Pass {
        setup_s,
        timed,
        peak_rss_mb,
        rounds,
        counts,
        checks,
        tracer: tr,
        tally,
    }
}

/// Run the workload: the untraced run sets the end-to-end metrics, the
/// traced run the per-layer ones. Spill segments go under `work`.
pub fn run(
    plan: &Plan,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> (Outcome, Vec<Counts>, Tracer) {
    let mut st = RunState {
        dir: work.join(format!("tiered-{}", std::process::id())),
        known: None,
        to_check: Vec::new(),
        shipped: Vec::new(),
    };
    let mut lateness = Vec::new();
    let runs = run_passes(seconds, plan.min_passes, traced, |n, t| {
        let p = pass(plan, seed, n, t, &mut st);
        lateness.extend_from_slice(p.tally.samples("lateness_ms"));
        p
    });
    let mut out = Outcome::default();
    out.absorb(&runs.out);
    // Off the clock: sampled corpus traces against the reference, loaded
    // from the batches every pass shipped (the counts check shows they
    // are the same each pass).
    let reference = Reference::new(
        st.shipped
            .iter()
            .flat_map(|b| wire::decode_batch(&b.bytes).expect("shipped batch decodes")),
    );
    st.shipped = Vec::new();
    for (start, got) in &st.to_check {
        let want = reference.shape(*start);
        out.check(&want == got, || {
            format!(
                "trace from {start:?}: {} spans, reference {}",
                got.len(),
                want.len()
            )
        });
    }
    drop(reference);
    lateness_note(&mut out, "writer_lateness_ms", &lateness);
    let c0 = &runs.counts[0];
    if !traced {
        runs.end_to_end(&mut out, c0.wire_bytes as f64 / c0.spans as f64);
        out.set(
            "cold_bytes_per_span",
            c0.cold_bytes as f64 / c0.cold_spans.max(1) as f64,
            1,
        );
    } else {
        let t = &runs.tally;
        let scale = runs.traced_scale();
        let totals = runs.tracer.totals();
        let total = |name: &str| totals.get(name).map_or(0.0, |x| x.total_ns as f64) * scale;
        let per = |v: f64, n: f64| v / n.max(1.0);
        let capture = t.sum("capture_spans");
        let decoded = t.sum("bulk_spans") + t.sum("live_spans");
        out.set(
            "df_mesh.run_until.ns_per_span",
            per(total("df_mesh.run_until"), capture),
            capture as usize,
        );
        out.set(
            "df_agent.poll.ns_per_span",
            per(total("df_agent.poll"), capture),
            capture as usize,
        );
        out.set(
            "df_agent.spans_per_poll",
            per(capture, t.sum("capture_polls")),
            t.sum("capture_polls") as usize,
        );
        out.set(
            "df_agent.incomplete_ratio",
            per(t.sum("capture_incomplete"), capture),
            capture as usize,
        );
        out.set(
            "df_types.wire.encode.ns_per_span",
            per(total("df_types.wire.encode"), capture),
            capture as usize,
        );
        out.set(
            "df_types.wire.decode.ns_per_span",
            per(total("df_types.wire.decode"), decoded),
            decoded as usize,
        );
        out.set(
            "df_server.concurrent.insert.ns_per_span",
            per(total("df_server.concurrent.insert"), decoded),
            decoded as usize,
        );
        let (flush_us, flushes) = t.median("flush_us");
        out.set("df_server.concurrent.flush.us", flush_us * scale, flushes);
        let tq = t.sum("trace_queries");
        out.set(
            "df_server.trace_cache.hit_ratio",
            per(t.sum("cache_hits"), tq),
            tq as usize,
        );
        out.set(
            "df_server.trace_cache.stale_ratio",
            per(t.sum("cache_stale"), tq),
            tq as usize,
        );
        out.set(
            "df_server.trace_cache.invalidated_ratio",
            per(t.sum("cache_invalidated"), tq),
            tq as usize,
        );
        let (query_us, lists) = t.median("store_query_us");
        out.set("df_storage.query.us", query_us * scale, lists);
        out.set(
            "df_storage.query.rows_per_query",
            per(t.sum("store_rows"), lists as f64),
            lists,
        );
        let cold = t.sum("cold_spans");
        out.set(
            "df_storage.spill.ns_per_span",
            per(t.sum("spill_ns") * scale, cold),
            cold as usize,
        );
        out.set(
            "df_storage.spill.cold_bytes_per_span",
            per(c0.cold_bytes as f64, c0.cold_spans as f64),
            c0.cold_spans as usize,
        );
        let fetches = t.sum("pool_hits") + t.sum("pool_misses");
        out.set(
            "df_storage.bufferpool.hit_ratio",
            per(t.sum("pool_hits"), fetches),
            fetches as usize,
        );
        out.set(
            "df_storage.bufferpool.misses_per_query",
            per(t.sum("pool_misses"), t.sum("queries")),
            t.sum("queries") as usize,
        );
        // Phase 1's blocking path: decode, insert, flush and spill run one
        // after another on the loading thread (groups below the writer's
        // base), with no children of their own.
        let blocking = [
            "df_types.wire.decode",
            "df_server.concurrent.insert",
            "df_server.concurrent.flush",
            "df_storage.spill",
        ];
        let bulk_ns: f64 = runs
            .tracer
            .spans()
            .iter()
            .filter(|s| s.group < WRITER_GROUPS && blocking.contains(&s.name))
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum();
        runs.trace_summary(&mut out, per(bulk_ns * scale, t.sum("bulk_spans")));
    }
    let _ = std::fs::remove_dir_all(&st.dir);
    (out, runs.counts, runs.tracer)
}
