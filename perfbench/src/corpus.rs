//! Bookinfo capture: the deployed app under DeepFlow, polled tick by tick.

use crate::tracer::Tracer;
use crate::util::Rng;
use deepflow::mesh::apps;
use deepflow::mesh::World;
use deepflow::types::{wire, DurationNs, NodeId, Span, TimeNs};
use deepflow::Deployment;

/// Virtual time between agent polls (the deployment's flush interval).
pub const TICK: DurationNs = DurationNs::from_millis(100);

/// The Bookinfo app (fixed world seed inside the template) with DeepFlow
/// installed on every node.
pub fn deploy_bookinfo(rps: f64, virtual_secs: u64) -> (World, Deployment) {
    let mut tracer = || apps::no_tracer();
    let (mut world, _handles) =
        apps::bookinfo(rps, DurationNs::from_secs(virtual_secs), &mut tracer);
    let deployment = Deployment::install(&mut world).expect("verifier admits the hook programs");
    (world, deployment)
}

/// The tick ending at `tick` × [`TICK`].
pub fn tick_time(tick: u64) -> TimeNs {
    TimeNs(tick * TICK.as_nanos())
}

/// One agent poll's output.
#[derive(Debug)]
pub struct Poll {
    /// Tick the poll ran at.
    pub tick: u64,
    /// Node polled.
    pub node: NodeId,
    /// Spans the agent shipped.
    pub spans: Vec<Span>,
}

/// A captured corpus: every poll in order, plus what capturing cost.
#[derive(Debug, Default)]
pub struct Capture {
    /// Polls in ship order (tick, then node).
    pub polls: Vec<Poll>,
    /// Agent counters summed over nodes.
    pub agent: deepflow::agent::AgentStats,
    /// Non-empty polls.
    pub polls_nonempty: u64,
}

impl Capture {
    /// Spans in ship order.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.polls.iter().flat_map(|p| p.spans.iter())
    }

    /// Spans captured.
    pub fn span_count(&self) -> usize {
        self.polls.iter().map(|p| p.spans.len()).sum()
    }
}

/// Run Bookinfo at `rps` for `ticks` ticks, polling every agent each tick
/// over the struct path. Traced: `df_mesh.run_until` and `df_agent.poll`.
pub fn capture_bookinfo(rps: f64, ticks: u64, tr: &mut Tracer) -> Capture {
    let virtual_secs = (ticks * TICK.as_nanos()).div_ceil(1_000_000_000);
    let (mut world, mut dep) = deploy_bookinfo(rps, virtual_secs);
    let mut cap = Capture::default();
    for tick in 1..=ticks {
        tr.new_group();
        let now = tick_time(tick);
        let root = tr.begin("capture.tick");
        let s = tr.begin("df_mesh.run_until");
        world.run_until(now);
        tr.end(s);
        for (&node, agent) in dep.agents.iter_mut() {
            let kernel = world
                .kernels
                .get_mut(&node)
                .expect("agent node has a kernel");
            let s = tr.begin("df_agent.poll");
            let spans = agent.poll(kernel, &mut world.fabric, now);
            tr.end(s);
            if !spans.is_empty() {
                cap.polls_nonempty += 1;
            }
            cap.polls.push(Poll { tick, node, spans });
        }
        tr.end(root);
    }
    cap.agent = dep.agent_stats();
    cap
}

/// Encode `spans` as one DFW1 batch. Traced: `df_types.wire.encode`.
pub fn encode(spans: &[Span], tr: &mut Tracer) -> Batch {
    let s = tr.begin("df_types.wire.encode");
    let bytes = wire::encode_batch(spans);
    tr.end(s);
    Batch {
        bytes,
        spans: spans.len(),
        max_req_ns: spans
            .iter()
            .map(|s| s.req_time.as_nanos())
            .max()
            .unwrap_or(0),
    }
}

/// Re-encode `spans` into DFW1 batches whose sizes are drawn uniformly
/// from `[min, max]` by `rng` (the seed picks the batch boundaries).
pub fn encode_batches<'a>(
    spans: impl IntoIterator<Item = &'a Span>,
    min: usize,
    max: usize,
    rng: &mut Rng,
    tr: &mut Tracer,
) -> Vec<Batch> {
    let mut out = Vec::new();
    let mut pending: Vec<Span> = Vec::new();
    let mut target = rng.range(min as u64, max as u64 + 1) as usize;
    for span in spans {
        pending.push(span.clone());
        if pending.len() >= target {
            out.push(encode(&pending, tr));
            pending.clear();
            target = rng.range(min as u64, max as u64 + 1) as usize;
        }
    }
    if !pending.is_empty() {
        out.push(encode(&pending, tr));
    }
    out
}

/// One encoded batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// DFW1 bytes.
    pub bytes: Vec<u8>,
    /// Spans inside.
    pub spans: usize,
    /// Latest request time inside, ns.
    pub max_req_ns: u64,
}

/// Total bytes and spans over `batches`.
pub fn batch_totals(batches: &[Batch]) -> (u64, u64) {
    batches.iter().fold((0, 0), |(b, s), x| {
        (b + x.bytes.len() as u64, s + x.spans as u64)
    })
}
