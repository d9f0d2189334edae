//! The benchmark's inputs depend on `--seed` alone: the same seed gives
//! the same counts, a different seed a different query stream, and every
//! check passes either way. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::report::PER_LAYER;
use perfbench::{bookinfo, cluster, tiered};
use std::path::PathBuf;

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn bookinfo_counts_repeat_per_seed() {
    let plan = bookinfo::Plan::small();
    let (a, ca, _) = bookinfo::run(&plan, 7, 0.0, false);
    let (b, cb, _) = bookinfo::run(&plan, 7, 0.0, false);
    let (c, cc, _) = bookinfo::run(&plan, 8, 0.0, false);
    for o in [&a, &b, &c] {
        assert_eq!(o.failed, 0, "{:?}", o.failures);
        assert!(o.attempted > 0);
    }
    assert_eq!(ca, cb);
    assert!(ca[0].spans > 0 && ca[0].trace_spans > 0 && ca[0].list_rows > 0);
    assert_ne!(
        ca[0].stream, cc[0].stream,
        "the seed picks the query stream"
    );
    // The app keeps its own world seed: what the agents saw is the same.
    assert_eq!(ca[0].agent_spans, cc[0].agent_spans);
    assert_eq!(ca[0].wire_bytes, cc[0].wire_bytes);
    assert_eq!(
        a.metrics["wire_bytes_per_span"],
        b.metrics["wire_bytes_per_span"]
    );
}

#[test]
fn tiered_counts_repeat_per_seed() {
    let plan = tiered::Plan::small();
    let dir = work_dir("tiered-determinism");
    let (a, ca, _) = tiered::run(&plan, 7, 0.0, false, &dir);
    let (b, cb, _) = tiered::run(&plan, 7, 0.0, false, &dir);
    let (c, cc, _) = tiered::run(&plan, 8, 0.0, false, &dir);
    for o in [&a, &b, &c] {
        assert_eq!(o.failed, 0, "{:?}", o.failures);
    }
    assert_eq!(ca, cb);
    assert!(
        ca[0].cold_spans > 0 && ca[0].cold_bytes > 0,
        "the spill moved spans cold"
    );
    assert!(ca[0].trace_spans > 0 && ca[0].list_rows > 0);
    assert_ne!(
        ca[0].stream, cc[0].stream,
        "the seed picks the query stream"
    );
    assert_eq!(ca[0].agent_spans, cc[0].agent_spans);
    assert_eq!(ca[0].cold_bytes, cc[0].cold_bytes);
    assert_eq!(
        a.metrics["cold_bytes_per_span"],
        b.metrics["cold_bytes_per_span"]
    );
}

#[test]
fn cluster_counts_repeat_per_seed() {
    let plan = cluster::Plan::small();
    let (a, ca, _) = cluster::run(&plan, 7, 0.0, false);
    let (b, cb, _) = cluster::run(&plan, 7, 0.0, false);
    let (c, cc, _) = cluster::run(&plan, 8, 0.0, false);
    for o in [&a, &b, &c] {
        assert_eq!(o.failed, 0, "{:?}", o.failures);
    }
    assert_eq!(ca, cb);
    assert!(ca[0].trace_spans > 0 && ca[0].ingest_rpcs > 0);
    assert_ne!(
        ca[0].stream, cc[0].stream,
        "the seed picks the trace starts"
    );
    assert_eq!(ca[0].agent_spans, cc[0].agent_spans);
}

#[test]
fn traced_runs_report_every_layer_of_their_path() {
    let (o, _, tracer) = bookinfo::run(&bookinfo::Plan::small(), 3, 0.0, true);
    assert_eq!(o.failed, 0, "{:?}", o.failures);
    for name in [
        "df_mesh.run_until.ns_per_span",
        "df_agent.poll.ns_per_span",
        "df_types.wire.encode.ns_per_span",
        "df_types.wire.decode.ns_per_span",
        "df_server.ingest_batch.ns_per_span",
        "df_server.assemble.us",
        "df_storage.query.us",
        "trace.untraced_ns_per_span",
    ] {
        assert!(o.metrics[name].value > 0.0, "{name}");
    }
    assert!(o.metrics.contains_key("trace.overhead_ratio"));
    assert!(o.metrics.contains_key("trace.residual_ns_per_span"));
    for (name, _) in PER_LAYER {
        assert!(!name.is_empty());
    }
    // Layer calls nest under their tick or query.
    let spans = tracer.spans();
    assert!(spans
        .iter()
        .any(|s| s.name == "df_agent.poll" && s.parent.is_some()));
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

    let dir = work_dir("tiered-traced");
    let (o, _, _) = tiered::run(&tiered::Plan::small(), 3, 0.0, true, &dir);
    assert_eq!(o.failed, 0, "{:?}", o.failures);
    for name in [
        "df_server.concurrent.insert.ns_per_span",
        "df_server.concurrent.flush.us",
        "df_storage.spill.ns_per_span",
        "df_storage.spill.cold_bytes_per_span",
        "df_storage.query.us",
    ] {
        assert!(o.metrics[name].value > 0.0, "{name}");
    }
    let (o, _, _) = cluster::run(&cluster::Plan::small(), 3, 0.0, true);
    assert_eq!(o.failed, 0, "{:?}", o.failures);
    for name in [
        "df_cluster.ingest_wire.ns_per_span",
        "df_cluster.rpcs_per_batch",
        "df_cluster.rpcs_per_trace",
    ] {
        assert!(o.metrics[name].value > 0.0, "{name}");
    }
}
