//! `bookinfo-deploy`: the deployed path, with the agent doing most of
//! the work.
//!
//! Each pass builds Bookinfo at ~600 RPS, installs DeepFlow and drives one
//! virtual second of warm-up (set-up), then drives 100 ms virtual ticks
//! itself over the wire path — `World::run_until`, `Agent::poll_wire` per
//! node, `Server::ingest_wire` — in rounds. After each round's ticks one
//! closed-loop client interleaves span lists (a 1000-row page over a
//! window holding several times that, some filtered) with traces from
//! distinct random starts, so no trace query hits the cache.

use crate::check::{shape, ListFilter, ListIndex, Reference, Shape};
use crate::corpus::{deploy_bookinfo, tick_time, TICK};
use crate::harness::{
    run_passes, timed_setup, Pass, PassCounts, Tally, FRESHNESS_MS, LIST_US, TRACE_US,
};
use crate::report::Outcome;
use crate::tracer::Tracer;
use crate::util::{fnv, peak_rss_mb, Rng, Rounds};
use deepflow::mesh::World;
use deepflow::server::assemble::AssembleConfig;
use deepflow::server::sharded::assemble_trace_sharded;
use deepflow::types::{wire, DurationNs, SpanId, TimeNs};
use deepflow::Deployment;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Sizes of one pass.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Offered load (requests per virtual second).
    pub rps: f64,
    /// Ticks driven during set-up, before timing starts.
    pub warm_ticks: u64,
    /// Timed rounds per pass.
    pub rounds: usize,
    /// Ticks per round.
    pub ticks_per_round: u64,
    /// Span-list queries per round.
    pub lists_per_round: usize,
    /// Trace queries per round.
    pub traces_per_round: usize,
    /// Span-list window width.
    pub window: DurationNs,
    /// Span-list page size.
    pub page: usize,
    /// Queries only touch data at least this many ticks old.
    pub settle_ticks: u64,
    /// Traces per pass compared with the reference assembly.
    pub checked_traces: usize,
    /// Minimum passes per run.
    pub min_passes: usize,
}

impl Plan {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Plan {
            rps: 600.0,
            warm_ticks: 10,
            rounds: 16,
            ticks_per_round: 5,
            lists_per_round: 10,
            traces_per_round: 10,
            window: DurationNs::from_millis(250),
            page: 1000,
            settle_ticks: 5,
            checked_traces: 16,
            min_passes: 3,
        }
    }

    /// Small sizes for tests.
    pub fn small() -> Self {
        Plan {
            rps: 100.0,
            warm_ticks: 5,
            rounds: 3,
            ticks_per_round: 3,
            lists_per_round: 4,
            traces_per_round: 4,
            window: DurationNs::from_millis(300),
            page: 50,
            settle_ticks: 2,
            checked_traces: 6,
            min_passes: 2,
        }
    }
}

/// Counts that depend on the seed only, never on timing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Spans shipped in the timed phase.
    pub spans: u64,
    /// DFW1 bytes shipped in the timed phase.
    pub wire_bytes: u64,
    /// Spans over all trace answers.
    pub trace_spans: u64,
    /// Rows over all span-list answers.
    pub list_rows: u64,
    /// Spans the agents built (sys + net), set-up included.
    pub agent_spans: u64,
    /// Fingerprint of the query stream.
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

/// One pass in progress: the deployment, the generator's record of what
/// it shipped, and what has been measured so far.
struct State {
    world: World,
    dep: Deployment,
    index: ListIndex,
    shipped: Vec<Vec<u8>>,
    /// Spans ingested through each tick (index = tick).
    ingested_by_tick: Vec<u64>,
    rounds: Rounds,
    counts: Counts,
    checks: Outcome,
    tr: Tracer,
    tally: Tally,
}

impl State {
    /// One tick: advance the app, then poll every agent and ship its
    /// batch. `round` is `None` during set-up (not measured).
    fn tick(&mut self, tick: u64, round: Option<usize>) {
        let now = tick_time(tick);
        if let Some(r) = round {
            self.rounds.probe(r);
        }
        let tr = &mut self.tr;
        tr.new_group();
        let root = tr.begin("tick");
        let s = tr.begin("df_mesh.run_until");
        self.world.run_until(now);
        tr.end(s);
        let due = Instant::now();
        let mut busy = Duration::ZERO;
        let mut batches = Vec::new();
        let mut spans_this_tick = 0u64;
        for (&node, agent) in self.dep.agents.iter_mut() {
            let kernel = self
                .world
                .kernels
                .get_mut(&node)
                .expect("agent node has a kernel");
            let t0 = Instant::now();
            let batch = if tr.enabled() {
                let s = tr.begin("df_agent.poll");
                let spans = agent.poll(kernel, &mut self.world.fabric, now);
                tr.end(s);
                self.tally.add("polls", 1.0);
                (!spans.is_empty()).then(|| {
                    self.tally.add("polls_nonempty", 1.0);
                    let s = tr.begin("df_types.wire.encode");
                    let b = wire::encode_batch(&spans);
                    tr.end(s);
                    b
                })
            } else {
                agent.poll_wire(kernel, &mut self.world.fabric, now)
            };
            let Some(batch) = batch else {
                busy += t0.elapsed();
                continue;
            };
            let result = if tr.enabled() {
                let s = tr.begin("df_types.wire.decode");
                let decoded = wire::decode_batch(&batch);
                tr.end(s);
                decoded.map(|spans| {
                    let s = tr.begin("df_server.ingest_batch");
                    let ids = self.dep.server.ingest_batch(spans);
                    tr.end(s);
                    ids
                })
            } else {
                self.dep.server.ingest_wire(&batch)
            };
            let done = Instant::now();
            busy += done - t0;
            let n = result.as_ref().map_or(0, |ids| ids.len() as u64);
            self.checks.check(result.is_ok(), || {
                format!("ingest at tick {tick} rejected: {result:?}")
            });
            spans_this_tick += n;
            if let Some(r) = round {
                self.rounds
                    .sample(r, FRESHNESS_MS, (done - due).as_secs_f64() * 1e3);
                self.counts.wire_bytes += batch.len() as u64;
                self.counts.spans += n;
            }
            batches.push(batch);
        }
        tr.end(root);
        if let Some(r) = round {
            self.rounds.work(r, spans_this_tick as f64, busy);
        }
        // Off the clock: the generator's own record of what was shipped.
        for b in batches {
            let spans = wire::decode_batch(&b).expect("agent batch decodes");
            self.index.record(&spans);
            self.shipped.push(b);
        }
        let prev = *self.ingested_by_tick.last().expect("tick 0 recorded");
        self.ingested_by_tick.push(prev + spans_this_tick);
    }

    /// One span-list query over `[from, from + window)`.
    fn span_list(&mut self, plan: &Plan, round: usize, from: TimeNs, filter: ListFilter) {
        let to = TimeNs(from.as_nanos() + plan.window.as_nanos());
        let query = filter.query(from, to, plan.page);
        let expected = self.index.expected(from, to, &filter, plan.page);
        let tr = &mut self.tr;
        tr.new_group();
        let root = tr.begin("query.span_list");
        let s = tr.begin("df_server.span_list");
        let t0 = Instant::now();
        let rows = self.dep.server.span_list(&query);
        let dt = t0.elapsed();
        tr.end(s);
        if tr.enabled() {
            let s = tr.begin("df_storage.query");
            let t1 = Instant::now();
            let raw = self.dep.server.store().query(&query);
            let dq = t1.elapsed();
            tr.end(s);
            self.tally.add("store_rows", raw.len() as f64);
            self.tally.push("store_query_us", dq.as_secs_f64() * 1e6);
            self.tally
                .push("label_join_us", (dt.as_secs_f64() - dq.as_secs_f64()) * 1e6);
        }
        tr.end(root);
        self.rounds.sample(round, LIST_US, dt.as_secs_f64() * 1e6);
        self.counts.list_rows += rows.len() as u64;
        self.counts.stream = fnv(fnv(self.counts.stream, from.as_nanos()), rows.len() as u64);
        self.checks.check(rows.len() == expected, || {
            format!(
                "span list {query:?}: {} rows, generator counted {expected}",
                rows.len()
            )
        });
    }

    /// One trace query from `start`; returns the answer's shape.
    fn trace(&mut self, round: usize, start: SpanId) -> Shape {
        let tr = &mut self.tr;
        tr.new_group();
        let root = tr.begin("query.trace");
        let s = tr.begin("df_server.trace");
        let t0 = Instant::now();
        let trace = self.dep.server.trace(start);
        let dt = t0.elapsed();
        tr.end(s);
        if tr.enabled() {
            let s = tr.begin("df_server.assemble");
            let t1 = Instant::now();
            let fresh =
                assemble_trace_sharded(self.dep.server.store(), start, &AssembleConfig::default());
            self.tally
                .push("assemble_us", t1.elapsed().as_secs_f64() * 1e6);
            tr.end(s);
            self.tally.add("assemble_spans", fresh.len() as f64);
        }
        tr.end(root);
        self.rounds.sample(round, TRACE_US, dt.as_secs_f64() * 1e6);
        self.counts.trace_spans += trace.len() as u64;
        self.counts.stream = fnv(self.counts.stream, start.raw());
        let has_start = trace.spans.iter().any(|s| s.span.span_id == start);
        self.checks.check(has_start, || {
            format!("trace from {start:?} lacks its start")
        });
        shape(&trace)
    }
}

/// Run pass `n`; `traced` records layer spans.
fn pass(plan: &Plan, seed: u64, n: usize, traced: bool) -> Pass<Counts> {
    let total_ticks = plan.warm_ticks + plan.rounds as u64 * plan.ticks_per_round;
    let virtual_secs = (total_ticks * TICK.as_nanos()).div_ceil(1_000_000_000) + 1;
    let (mut st, setup_s) = timed_setup(|| {
        let (world, dep) = deploy_bookinfo(plan.rps, virtual_secs);
        let mut st = State {
            world,
            dep,
            index: ListIndex::default(),
            shipped: Vec::new(),
            ingested_by_tick: vec![0],
            rounds: Rounds::default(),
            counts: Counts::default(),
            checks: Outcome::default(),
            tr: Tracer::new(traced, 0),
            tally: Tally::default(),
        };
        for tick in 1..=plan.warm_ticks {
            st.tick(tick, None);
        }
        st
    });

    let t_timed = Instant::now();
    let mut rng = Rng::for_pass(seed, 1, n);
    let mut used_starts: HashSet<u64> = HashSet::new();
    let mut to_check: Vec<(SpanId, Shape)> = Vec::new();
    let mut tick = plan.warm_ticks;
    let mut lists = 0;
    for round in 0..plan.rounds {
        for _ in 0..plan.ticks_per_round {
            tick += 1;
            st.tick(tick, Some(round));
        }
        let settled_tick = tick - plan.settle_ticks;
        let eligible = st.ingested_by_tick[settled_tick as usize];
        let settled_time = tick_time(settled_tick).as_nanos();
        let endpoints = st.index.endpoints();
        for q in 0..plan.lists_per_round.max(plan.traces_per_round) {
            if q < plan.lists_per_round {
                let from =
                    TimeNs(rng.range(0, settled_time.saturating_sub(plan.window.as_nanos())));
                let filter = ListFilter::nth(lists, &mut rng, &endpoints);
                lists += 1;
                st.span_list(plan, round, from, filter);
            }
            if q < plan.traces_per_round {
                let start = loop {
                    let id = rng.range(1, eligible + 1);
                    if used_starts.insert(id) {
                        break SpanId(id);
                    }
                };
                let got = st.trace(round, start);
                if to_check.len() < plan.checked_traces {
                    to_check.push((start, got));
                }
            }
        }
        st.rounds.probe(round);
    }
    let timed = t_timed.elapsed();
    let peak_rss_mb = peak_rss_mb();

    // Off the clock: compare the sampled traces with the reference.
    let reference = Reference::new(
        st.shipped
            .iter()
            .flat_map(|b| wire::decode_batch(b).expect("agent batch decodes")),
    );
    let held = st.dep.server.span_count();
    st.checks.check(reference.len() == held, || {
        format!("server holds {held} spans, reference {}", reference.len())
    });
    for (start, got) in &to_check {
        let want = reference.shape(*start);
        st.checks.check(&want == got, || {
            format!(
                "trace from {start:?}: {} spans, reference {}",
                got.len(),
                want.len()
            )
        });
    }
    let agent = st.dep.agent_stats();
    st.counts.agent_spans = agent.sys_spans + agent.net_spans;
    st.tally.add("agent_spans", st.counts.agent_spans as f64);
    st.tally.add("incomplete", agent.incomplete_spans as f64);
    // Layer spans cover the warm-up ticks too.
    let shipped = *st.ingested_by_tick.last().expect("tick 0 recorded");
    st.tally.add("spans", shipped as f64);
    Pass {
        setup_s,
        timed,
        peak_rss_mb,
        rounds: st.rounds,
        counts: st.counts,
        checks: st.checks,
        tracer: st.tr,
        tally: st.tally,
    }
}

/// Run the workload: the untraced run sets the end-to-end metrics, the
/// traced run the per-layer ones.
pub fn run(plan: &Plan, seed: u64, seconds: f64, traced: bool) -> (Outcome, Vec<Counts>, Tracer) {
    let runs = run_passes(seconds, plan.min_passes, traced, |n, t| {
        pass(plan, seed, n, t)
    });
    let mut out = Outcome::default();
    out.absorb(&runs.out);
    let c0 = &runs.counts[0];
    if !traced {
        runs.end_to_end(&mut out, c0.wire_bytes as f64 / c0.spans as f64);
    } else {
        let t = &runs.tally;
        let scale = runs.traced_scale();
        let totals = runs.tracer.totals();
        let spans = t.sum("spans");
        let ns_per_span = |name: &str| {
            totals.get(name).map_or(0.0, |x| x.total_ns as f64) * scale / spans.max(1.0)
        };
        let n = spans as usize;
        out.set(
            "df_mesh.run_until.ns_per_span",
            ns_per_span("df_mesh.run_until"),
            n,
        );
        out.set("df_agent.poll.ns_per_span", ns_per_span("df_agent.poll"), n);
        let polls = t.sum("polls_nonempty");
        out.set(
            "df_agent.spans_per_poll",
            spans / polls.max(1.0),
            polls as usize,
        );
        let agent_spans = t.sum("agent_spans");
        out.set(
            "df_agent.incomplete_ratio",
            t.sum("incomplete") / agent_spans.max(1.0),
            agent_spans as usize,
        );
        out.set(
            "df_types.wire.encode.ns_per_span",
            ns_per_span("df_types.wire.encode"),
            n,
        );
        out.set(
            "df_types.wire.decode.ns_per_span",
            ns_per_span("df_types.wire.decode"),
            n,
        );
        out.set(
            "df_server.ingest_batch.ns_per_span",
            ns_per_span("df_server.ingest_batch"),
            n,
        );
        let (assemble_us, traces) = t.median("assemble_us");
        out.set("df_server.assemble.us", assemble_us * scale, traces);
        out.set(
            "df_server.assemble.spans_per_trace",
            t.sum("assemble_spans") / traces.max(1) as f64,
            traces,
        );
        let (join_us, lists) = t.median("label_join_us");
        out.set("df_server.label_join.us", join_us * scale, lists);
        let (query_us, lists) = t.median("store_query_us");
        out.set("df_storage.query.us", query_us * scale, lists);
        out.set(
            "df_storage.query.rows_per_query",
            t.sum("store_rows") / lists.max(1) as f64,
            lists,
        );
        let blocking: f64 = [
            "df_agent.poll",
            "df_types.wire.encode",
            "df_types.wire.decode",
            "df_server.ingest_batch",
        ]
        .iter()
        .map(|name| totals.get(name).map_or(0.0, |x| x.self_ns as f64) * scale / spans.max(1.0))
        .sum();
        runs.trace_summary(&mut out, blocking);
    }
    (out, runs.counts, runs.tracer)
}
