//! What a run reports, and how it is printed.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, with units: every workload reports every one.
pub const END_TO_END: [(&str, &str); 8] = [
    ("ingest_spans_per_s", "1/s"),
    ("freshness_p50_ms", "ms"),
    ("freshness_p90_ms", "ms"),
    ("trace_p50_us", "us"),
    ("trace_p90_us", "us"),
    ("wire_bytes_per_span", "B/span"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics of the traced run, with units. A workload whose path
/// does not enter a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("df_mesh.run_until.ns_per_span", "ns/span"),
    ("df_agent.poll.ns_per_span", "ns/span"),
    ("df_agent.spans_per_poll", "spans"),
    ("df_agent.incomplete_ratio", "ratio"),
    ("df_types.wire.encode.ns_per_span", "ns/span"),
    ("df_types.wire.decode.ns_per_span", "ns/span"),
    ("df_server.ingest_batch.ns_per_span", "ns/span"),
    ("df_server.assemble.us", "us"),
    ("df_server.assemble.spans_per_trace", "spans"),
    ("df_server.label_join.us", "us"),
    ("df_server.concurrent.insert.ns_per_span", "ns/span"),
    ("df_server.concurrent.flush.us", "us"),
    ("df_server.trace_cache.hit_ratio", "ratio"),
    ("df_server.trace_cache.stale_ratio", "ratio"),
    ("df_server.trace_cache.invalidated_ratio", "ratio"),
    ("df_storage.query.us", "us"),
    ("df_storage.query.rows_per_query", "rows"),
    ("df_storage.spill.ns_per_span", "ns/span"),
    ("df_storage.spill.cold_bytes_per_span", "B/span"),
    ("df_storage.bufferpool.hit_ratio", "ratio"),
    ("df_storage.bufferpool.misses_per_query", "count"),
    ("df_cluster.ingest_wire.ns_per_span", "ns/span"),
    ("df_cluster.rpcs_per_batch", "count"),
    ("df_cluster.rpcs_per_trace", "count"),
    ("df_cluster.rpc_retries", "count"),
    ("df_cluster.degraded_queries", "count"),
    ("df_server.span_list.p50_us", "us"),
    ("df_server.span_list.p90_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.blocking_self_ns_per_span", "ns/span"),
    ("trace.untraced_ns_per_span", "ns/span"),
    ("trace.residual_ns_per_span", "ns/span"),
    ("trace.residual_share", "ratio"),
];

/// Measured by the untraced run of only some workloads, so printed in
/// its table but left out of the result line (which must hold the same
/// metrics on every workload).
pub const PARTIAL: [(&str, &str); 3] = [
    ("span_list_p50_us", "us"),
    ("span_list_p90_us", "us"),
    ("cold_bytes_per_span", "B/span"),
];

/// One reported number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The measurement.
    pub value: f64,
    /// Samples it was computed from (1 for an exact count).
    pub samples: usize,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (ingest batches, queries).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, Value>,
    /// Facts about the run printed beside the result (lateness, passes).
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Count one attempted operation; `ok == false` counts it failed and
    /// keeps `why` (up to a few).
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, Value { value, samples });
    }

    /// Record a note.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.insert(key, value.to_string());
    }

    /// Fold another outcome's operation counts, failures and notes in.
    pub fn absorb(&mut self, other: &Outcome) {
        self.absorb_checks(other);
        for (k, v) in &other.notes {
            self.notes.insert(k, v.clone());
        }
    }

    /// Fold another outcome's operation counts and failures in.
    pub fn absorb_checks(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in &other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f.clone());
            }
        }
    }
}

/// A finite JSON number (non-finite values print as 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `names`.
pub fn result_line(o: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = o.metrics.get(name).map_or(0.0, |v| v.value);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// A human-readable table of every metric the run measured.
pub fn table(o: &Outcome, names: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (name, unit) in names {
        if let Some(v) = o.metrics.get(name) {
            let _ = writeln!(
                out,
                "  {name:<42} {:>14.4} {unit:<8} n={}",
                v.value, v.samples
            );
        }
    }
    out
}
