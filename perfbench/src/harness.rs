//! The pass loop every workload shares, and the metrics it derives.
//!
//! A run repeats one workload's pass — set-up, then a timed phase made of
//! short rounds — until `--seconds` of timed work are done. Every pass
//! must produce the same seed-determined counts. The traced run
//! alternates untraced and traced passes, so the tracing overhead is
//! measured against untraced passes of the same run.

use crate::report::Outcome;
use crate::tracer::Tracer;
use crate::util::{probe, quantile, Rounds, PROBE_REF_S};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::{Duration, Instant};

/// Batch freshness, ms: a timing series recorded in [`Rounds`].
pub const FRESHNESS_MS: &str = "freshness_ms";
/// Trace query latency, µs.
pub const TRACE_US: &str = "trace_us";
/// Span-list query latency, µs.
pub const LIST_US: &str = "list_us";

/// Sums and samples of layer numbers, by name.
#[derive(Debug, Default)]
pub struct Tally {
    sums: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tally {
    /// Add `v` to the sum `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// Record one sample of `name`.
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// The sum `name` (0 if never added to).
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Median of the samples of `name`, and how many there are.
    pub fn median(&self, name: &str) -> (f64, usize) {
        let s = self.samples(name);
        (quantile(s, 0.5).unwrap_or(0.0), s.len())
    }

    /// The samples of `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Fold another tally in.
    pub fn absorb(&mut self, other: Tally) {
        for (k, v) in other.sums {
            *self.sums.entry(k).or_default() += v;
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }
}

/// Seed-determined counts of one pass.
pub trait PassCounts: Clone + PartialEq + Debug {
    /// The part every pass of a run must repeat: everything not drawn
    /// from the pass's own query stream.
    fn invariant(&self) -> Self;
}

/// What one pass measured.
pub struct Pass<C> {
    /// Set-up time, scaled to reference host speed.
    pub setup_s: f64,
    /// Wall time of the timed phase.
    pub timed: Duration,
    /// Peak RSS at the end of the timed phase, MB.
    pub peak_rss_mb: f64,
    /// Rounds of the timed phase (work = spans ingested).
    pub rounds: Rounds,
    /// Seed-determined counts; must repeat in every pass.
    pub counts: C,
    /// Checked operations.
    pub checks: Outcome,
    /// Layer spans (traced passes only).
    pub tracer: Tracer,
    /// Layer numbers (traced passes only).
    pub tally: Tally,
}

/// Time `f` as set-up, scaled to reference host speed by the median of
/// probes run just before and just after it.
pub fn timed_setup<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let mut probes: Vec<f64> = (0..SETUP_PROBES).map(|_| probe()).collect();
    let t = Instant::now();
    let value = f();
    let raw = t.elapsed().as_secs_f64();
    probes.extend((0..SETUP_PROBES).map(|_| probe()));
    let p = quantile(&probes, 0.5).unwrap_or(PROBE_REF_S);
    (value, raw * PROBE_REF_S / p)
}

/// Probes on each side of a set-up.
const SETUP_PROBES: usize = 3;

/// Everything a run's passes measured.
pub struct Runs<C> {
    /// Checked operations over all passes.
    pub out: Outcome,
    /// Scaled set-up time of each pass.
    pub setups: Vec<f64>,
    /// Peak RSS of the first pass, MB.
    pub first_rss_mb: f64,
    /// Rounds of untraced passes.
    pub untraced: Rounds,
    /// Rounds of traced passes.
    pub traced: Rounds,
    /// Spans of traced passes.
    pub tracer: Tracer,
    /// Layer numbers of traced passes.
    pub tally: Tally,
    /// Counts of every pass.
    pub counts: Vec<C>,
}

/// Run `pass(n, traced)` for passes n = 0, 1, … until `seconds` of timed
/// work are done and at least `min_passes` (4 when traced) have run.
pub fn run_passes<C: PassCounts>(
    seconds: f64,
    min_passes: usize,
    traced: bool,
    mut pass: impl FnMut(usize, bool) -> Pass<C>,
) -> Runs<C> {
    let mut runs: Runs<C> = Runs {
        out: Outcome::default(),
        setups: Vec::new(),
        first_rss_mb: 0.0,
        untraced: Rounds::default(),
        traced: Rounds::default(),
        tracer: Tracer::new(traced, 0),
        tally: Tally::default(),
        counts: Vec::new(),
    };
    let min_passes = if traced {
        min_passes.max(4)
    } else {
        min_passes.max(1)
    };
    // The first probe of a process pays for page faults; keep it out.
    probe();
    let mut timed = 0.0;
    while runs.counts.len() < min_passes || timed < seconds {
        let n = runs.counts.len();
        let trace_this = traced && n % 2 == 1;
        let p = pass(n, trace_this);
        timed += p.timed.as_secs_f64();
        runs.out.absorb_checks(&p.checks);
        if let Some(first) = runs.counts.first() {
            runs.out
                .check(first.invariant() == p.counts.invariant(), || {
                    format!(
                        "pass {n} counts {:?} differ from pass 0 {first:?}",
                        p.counts
                    )
                });
        } else {
            runs.first_rss_mb = p.peak_rss_mb;
        }
        runs.setups.push(p.setup_s);
        if trace_this {
            runs.traced.append(p.rounds);
            runs.tracer.absorb(p.tracer);
            runs.tally.absorb(p.tally);
        } else {
            runs.untraced.append(p.rounds);
        }
        runs.counts.push(p.counts);
    }
    runs.out.note("passes", runs.counts.len());
    runs.out.note(
        "probe_ms_mean",
        format!("{:.4}", runs.untraced.mean_probe() * 1e3),
    );
    runs
}

/// A note summarising the generator's lateness samples (ms).
pub fn lateness_note(out: &mut Outcome, key: &'static str, samples: &[f64]) {
    let q = |q| quantile(samples, q).unwrap_or(0.0);
    out.note(
        key,
        format!(
            "p50 {:.3} p90 {:.3} max {:.3} over {} batches",
            q(0.5),
            q(0.9),
            q(1.0),
            samples.len()
        ),
    );
}

impl<C> Runs<C> {
    /// The rounds whose timings the run reports: untraced ones in the
    /// untraced run, traced ones in the traced run.
    fn reported(&self, traced: bool) -> &Rounds {
        if traced {
            &self.traced
        } else {
            &self.untraced
        }
    }

    /// The `q`-quantile of `series`, samples scaled by their rounds.
    pub fn quantile(&self, traced: bool, series: &str, q: f64) -> (f64, usize) {
        let r = self.reported(traced);
        (r.quantile(series, q), r.count(series))
    }

    /// Set the end-to-end metrics every workload reports, plus span-list
    /// latency where the workload has span lists.
    pub fn end_to_end(&self, out: &mut Outcome, wire_bytes_per_span: f64) {
        let r = &self.untraced;
        out.set("ingest_spans_per_s", r.rate(), r.work_rounds());
        out.note(
            "ingest_spans_per_s_unscaled",
            format!("{:.1}", r.raw_rate()),
        );
        for (name, series, q) in [
            ("freshness_p50_ms", FRESHNESS_MS, 0.5),
            ("freshness_p90_ms", FRESHNESS_MS, 0.9),
            ("trace_p50_us", TRACE_US, 0.5),
            ("trace_p90_us", TRACE_US, 0.9),
            ("span_list_p50_us", LIST_US, 0.5),
            ("span_list_p90_us", LIST_US, 0.9),
        ] {
            let (v, n) = self.quantile(false, series, q);
            if n > 0 {
                out.set(name, v, n);
            }
        }
        out.set("wire_bytes_per_span", wire_bytes_per_span, 1);
        out.set("peak_rss_mb", self.first_rss_mb, 1);
        out.set(
            "setup_s",
            quantile(&self.setups, 0.5).unwrap_or(0.0),
            self.setups.len(),
        );
    }

    /// Factor scaling the traced passes' raw layer timings to reference
    /// host speed (their mean probe against the reference).
    pub fn traced_scale(&self) -> f64 {
        PROBE_REF_S / self.traced.mean_probe()
    }

    /// Set the traced run's span-list latencies, tracing overhead and the
    /// reconciliation of `blocking_self_ns_per_span` (summed self times of
    /// the layer calls on the ingest path, already scaled by
    /// [`Self::traced_scale`]) against the untraced end-to-end ingest
    /// time per span.
    pub fn trace_summary(&self, out: &mut Outcome, blocking_self_ns_per_span: f64) {
        for (name, q) in [
            ("df_server.span_list.p50_us", 0.5),
            ("df_server.span_list.p90_us", 0.9),
        ] {
            let (v, n) = self.quantile(true, LIST_US, q);
            out.set(name, v, n);
        }
        let untraced_ns = 1e9 / self.untraced.rate();
        let traced_ns = 1e9 / self.traced.rate();
        let n = self.untraced.work_rounds();
        out.set(
            "trace.overhead_ratio",
            traced_ns / untraced_ns - 1.0,
            self.traced.work_rounds(),
        );
        out.set(
            "trace.blocking_self_ns_per_span",
            blocking_self_ns_per_span,
            self.traced.work_rounds(),
        );
        out.set("trace.untraced_ns_per_span", untraced_ns, n);
        out.set(
            "trace.residual_ns_per_span",
            untraced_ns - blocking_self_ns_per_span,
            n,
        );
        out.set(
            "trace.residual_share",
            (untraced_ns - blocking_self_ns_per_span) / untraced_ns,
            n,
        );
    }
}
