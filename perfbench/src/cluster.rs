//! `cluster-rf2`: distributed ingest and assembly.
//!
//! Set-up captures a Bookinfo corpus, re-encodes it into ~1k-span DFW1
//! batches and builds a 3-node `Cluster` with replication factor 2. The
//! timed phase ships the batches through `Cluster::ingest_wire` on a
//! fixed schedule (open loop: each batch is timed from its due time
//! until the write quorum acknowledged it), and after each batch one
//! closed-loop client runs `Cluster::assemble` from random starts among
//! spans shipped a few batches earlier. Both share the coordinator's one
//! thread, so a slow assembly delays the next batch, as it would there.

use crate::check::{shape, Reference, Shape};
use crate::corpus::{batch_totals, capture_bookinfo, encode_batches, Batch};
use crate::harness::{
    lateness_note, run_passes, timed_setup, Pass, PassCounts, Tally, FRESHNESS_MS, TRACE_US,
};
use crate::report::Outcome;
use crate::tracer::Tracer;
use crate::util::{fnv, peak_rss_mb, Rng, Rounds};
use deepflow::cluster::{Cluster, ClusterConfig};
use deepflow::types::{wire, SpanId};
use std::time::{Duration, Instant};

/// Trace-server nodes.
const NODES: usize = 3;
/// Copies of every shard.
const REPLICATION: usize = 2;

/// Sizes of one pass.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Offered load of the captured app (requests per virtual second).
    pub rps: f64,
    /// Ticks of corpus.
    pub corpus_ticks: u64,
    /// Batch size range, spans.
    pub batch_min: usize,
    /// Batch size range, spans.
    pub batch_max: usize,
    /// Interval between batch due times.
    pub interval: Duration,
    /// Assemblies after each batch.
    pub traces_per_batch: usize,
    /// Batches per statistics round.
    pub batches_per_round: usize,
    /// Trace starts come from batches at least this many batches old.
    pub settle_batches: usize,
    /// Traces per pass compared with the reference assembly.
    pub checked_traces: usize,
    /// Minimum passes per run.
    pub min_passes: usize,
}

impl Plan {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Plan {
            rps: 100.0,
            corpus_ticks: 400,
            batch_min: 800,
            batch_max: 1200,
            interval: Duration::from_millis(10),
            traces_per_batch: 5,
            batches_per_round: 10,
            settle_batches: 3,
            checked_traces: 16,
            min_passes: 3,
        }
    }

    /// Small sizes for tests.
    pub fn small() -> Self {
        Plan {
            rps: 50.0,
            corpus_ticks: 40,
            batch_min: 200,
            batch_max: 400,
            interval: Duration::from_millis(2),
            traces_per_batch: 2,
            batches_per_round: 4,
            settle_batches: 2,
            checked_traces: 6,
            min_passes: 2,
        }
    }
}

/// Counts that depend on the seed only, never on timing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Spans shipped.
    pub spans: u64,
    /// DFW1 bytes shipped.
    pub wire_bytes: u64,
    /// Batches shipped.
    pub batches: u64,
    /// Spans over all trace answers.
    pub trace_spans: u64,
    /// Spans the agents built during capture (sys + net).
    pub agent_spans: u64,
    /// RPCs sent by ingest.
    pub ingest_rpcs: u64,
    /// RPCs sent by assembly.
    pub trace_rpcs: u64,
    /// Fingerprint of the query stream.
    pub stream: u64,
}

impl PassCounts for Counts {
    fn invariant(&self) -> Self {
        Counts {
            trace_spans: 0,
            trace_rpcs: 0,
            stream: 0,
            ..self.clone()
        }
    }
}

/// Run pass `n`; `traced` records layer spans. Sampled traces go to
/// `to_check` and the shipped batches to `shipped`, for the reference
/// check after the run.
fn pass(
    plan: &Plan,
    seed: u64,
    n: usize,
    traced: bool,
    to_check: &mut Vec<(SpanId, Shape)>,
    shipped: &mut Vec<Batch>,
) -> Pass<Counts> {
    let mut tr = Tracer::new(traced, 0);
    let mut checks = Outcome::default();
    let mut tally = Tally::default();
    let mut counts = Counts::default();

    let ((cap, batches, mut cluster), setup_s) = timed_setup(|| {
        let cap = capture_bookinfo(plan.rps, plan.corpus_ticks, &mut tr);
        let mut rng = Rng::new(seed, 4);
        let batches: Vec<Batch> = encode_batches(
            cap.spans(),
            plan.batch_min,
            plan.batch_max,
            &mut rng,
            &mut tr,
        );
        let cluster = Cluster::new(ClusterConfig {
            nodes: NODES,
            replication_factor: REPLICATION,
            ..ClusterConfig::default()
        });
        (cap, batches, cluster)
    });
    tally.add("capture_spans", cap.span_count() as f64);
    tally.add("capture_polls", cap.polls_nonempty as f64);
    tally.add("capture_incomplete", cap.agent.incomplete_spans as f64);
    counts.agent_spans = cap.agent.sys_spans + cap.agent.net_spans;
    drop(cap);
    let (bytes, spans) = batch_totals(&batches);
    counts.wire_bytes = bytes;
    counts.spans = spans;
    counts.batches = batches.len() as u64;

    // ---- Timed: scheduled ingest, assemblies in between ----
    let mut rounds = Rounds::default();
    let mut rng = Rng::for_pass(seed, 5, n);
    let mut shipped_after: Vec<u64> = Vec::with_capacity(batches.len());
    let mut checked = 0;
    let t_timed = Instant::now();
    for (i, b) in batches.iter().enumerate() {
        let round = i / plan.batches_per_round;
        let due = t_timed + plan.interval * i as u32;
        // The probe runs in the gap before the batch is due.
        if due > Instant::now() {
            rounds.probe(round);
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
        let before = cluster.stats();
        tr.new_group();
        let root = tr.begin("batch");
        let result = if tr.enabled() {
            let s = tr.begin("df_types.wire.decode");
            let decoded = wire::decode_batch(&b.bytes);
            tr.end(s);
            decoded.map(|spans| {
                let s = tr.begin("df_cluster.ingest");
                let ids = cluster.ingest(spans);
                tr.end(s);
                ids
            })
        } else {
            cluster.ingest_wire(&b.bytes)
        };
        tr.end(root);
        let done = Instant::now();
        let after = cluster.stats();
        counts.ingest_rpcs += after.rpcs_sent - before.rpcs_sent;
        tally.add("retries", (after.rpc_retries - before.rpc_retries) as f64);
        let n = result.as_ref().map_or(0, Vec::len);
        checks.check(
            n == b.spans && after.spans_lost == before.spans_lost,
            || {
                format!(
                    "batch {i}: {n} of {} spans acknowledged ({result:?})",
                    b.spans
                )
            },
        );
        rounds.work(round, n as f64, done - start);
        rounds.sample(round, FRESHNESS_MS, (done - due).as_secs_f64() * 1e3);
        shipped_after.push(shipped_after.last().copied().unwrap_or(0) + n as u64);

        let Some(settled) = i.checked_sub(plan.settle_batches) else {
            continue;
        };
        let eligible = shipped_after[settled];
        for _ in 0..plan.traces_per_batch {
            let start = SpanId(rng.range(1, eligible + 1));
            counts.stream = fnv(counts.stream, start.raw());
            let before = cluster.stats();
            tr.new_group();
            let s = tr.begin("df_cluster.assemble");
            let t0 = Instant::now();
            let answer = cluster.assemble(start);
            let dt = t0.elapsed();
            tr.end(s);
            let after = cluster.stats();
            counts.trace_rpcs += after.rpcs_sent - before.rpcs_sent;
            tally.add("retries", (after.rpc_retries - before.rpc_retries) as f64);
            tally.add(
                "degraded",
                (after.degraded_queries - before.degraded_queries) as f64,
            );
            tally.add("traces", 1.0);
            rounds.sample(round, TRACE_US, dt.as_secs_f64() * 1e6);
            counts.trace_spans += answer.trace.len() as u64;
            let has_start = answer.trace.spans.iter().any(|s| s.span.span_id == start);
            checks.check(answer.missing_shards.is_empty() && has_start, || {
                format!(
                    "trace from {start:?}: missing shards {:?}, has start {has_start}",
                    answer.missing_shards
                )
            });
            if checked < plan.checked_traces {
                checked += 1;
                to_check.push((start, shape(&answer.trace)));
            }
        }
    }
    let timed = t_timed.elapsed();
    let peak_rss_mb = peak_rss_mb();
    tally.add("spans", spans as f64);
    tally.add("batches", batches.len() as f64);
    tally.add("ingest_rpcs", counts.ingest_rpcs as f64);
    tally.add("trace_rpcs", counts.trace_rpcs as f64);
    *shipped = batches;
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
/// traced run the per-layer ones.
pub fn run(plan: &Plan, seed: u64, seconds: f64, traced: bool) -> (Outcome, Vec<Counts>, Tracer) {
    let mut to_check = Vec::new();
    let mut shipped = Vec::new();
    let mut lateness = Vec::new();
    let runs = run_passes(seconds, plan.min_passes, traced, |n, t| {
        let p = pass(plan, seed, n, t, &mut to_check, &mut shipped);
        lateness.extend_from_slice(p.tally.samples("lateness_ms"));
        p
    });
    let mut out = Outcome::default();
    out.absorb(&runs.out);
    // Off the clock: sampled traces against the reference, loaded from
    // the batches every pass shipped (the counts check shows they are the
    // same each pass).
    let reference = Reference::new(
        shipped
            .iter()
            .flat_map(|b| wire::decode_batch(&b.bytes).expect("shipped batch decodes")),
    );
    drop(shipped);
    for (start, got) in &to_check {
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
    lateness_note(&mut out, "ingest_lateness_ms", &lateness);
    let c0 = &runs.counts[0];
    if !traced {
        runs.end_to_end(&mut out, c0.wire_bytes as f64 / c0.spans as f64);
    } else {
        let t = &runs.tally;
        let scale = runs.traced_scale();
        let totals = runs.tracer.totals();
        let total = |name: &str| totals.get(name).map_or(0.0, |x| x.total_ns as f64) * scale;
        let per = |v: f64, n: f64| v / n.max(1.0);
        let capture = t.sum("capture_spans");
        let spans = t.sum("spans");
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
            per(total("df_types.wire.decode"), spans),
            spans as usize,
        );
        let ingest_wire = per(
            total("df_types.wire.decode") + total("df_cluster.ingest"),
            spans,
        );
        out.set(
            "df_cluster.ingest_wire.ns_per_span",
            ingest_wire,
            spans as usize,
        );
        out.set(
            "df_cluster.rpcs_per_batch",
            per(t.sum("ingest_rpcs"), t.sum("batches")),
            t.sum("batches") as usize,
        );
        out.set(
            "df_cluster.rpcs_per_trace",
            per(t.sum("trace_rpcs"), t.sum("traces")),
            t.sum("traces") as usize,
        );
        out.set("df_cluster.rpc_retries", t.sum("retries"), 1);
        out.set("df_cluster.degraded_queries", t.sum("degraded"), 1);
        runs.trace_summary(&mut out, ingest_wire);
    }
    (out, runs.counts, runs.tracer)
}
