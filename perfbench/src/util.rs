//! Small helpers: a seeded RNG, quantiles, per-round statistics and the
//! process's peak resident set.

use std::collections::BTreeMap;
use std::time::Duration;

/// SplitMix64: a tiny, seedable generator, so the query stream and batch
/// boundaries depend on `--seed` alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so workloads that
    /// draw several streams from one seed do not share them.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// The generator of `stream` in pass `pass` of a run: each pass draws
    /// a query stream of its own, so a run samples many queries.
    pub fn for_pass(seed: u64, stream: u64, pass: usize) -> Self {
        Rng::new(seed, stream + 0x100 * pass as u64)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`; `lo` when the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.next_u64() % (hi - lo)
        }
    }
}

/// One FNV-1a step: fold `v` into the fingerprint `h`.
pub fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// How long the host-speed probe takes on an unloaded host of the kind
/// this benchmark was tuned on (2 vCPUs of a shared x86-64 server, in
/// its fast phase). Timings are reported scaled to this speed.
pub const PROBE_REF_S: f64 = 0.001;

/// Time a fixed, std-only kernel — hashing, small allocations, a sort and
/// lookups over ~8k entries, ~1 ms — and return its duration in seconds.
///
/// Small shared hosts have phases of seconds to minutes in which the whole
/// vCPU runs up to ~2× slower (CPU time tracks wall time; steal stays
/// ~0), so two runs of the same code can differ by more than any sensible
/// regression bound. The probe runs beside the measured work, round by
/// round, and each round's timings are scaled by `PROBE_REF_S / probe`:
/// the host's speed drops out while a change to the program, which the
/// probe does not execute, still shows in full. Per round, the probe's
/// slowdown tracks the workload's with a correlation of ~0.87.
pub fn probe() -> f64 {
    use std::collections::HashMap;
    let t = std::time::Instant::now();
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..8000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let mut v = Vec::with_capacity(16 + (i % 48) as usize);
        v.extend_from_slice(&x.to_le_bytes());
        v.extend_from_slice(&i.to_le_bytes());
        map.insert(x, v);
    }
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    let total: usize = keys.iter().map(|k| map[k].len()).sum();
    std::hint::black_box(total);
    drop(map);
    t.elapsed().as_secs_f64()
}

/// One round's measurements.
#[derive(Debug, Clone, Default)]
struct Round {
    probes: Vec<f64>,
    work: f64,
    busy: f64,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

/// Measurements grouped into short rounds, each with host-speed probes
/// taken beside it (see [`probe`]).
///
/// Every statistic is computed per round, scaled to the reference speed
/// by that round's probes, and then summarised by the median over rounds,
/// which a minority of rounds disturbed by a phase change cannot move.
#[derive(Debug, Clone, Default)]
pub struct Rounds {
    rounds: Vec<Round>,
}

impl Rounds {
    fn at(&mut self, round: usize) -> &mut Round {
        if self.rounds.len() <= round {
            self.rounds.resize_with(round + 1, Round::default);
        }
        &mut self.rounds[round]
    }

    /// Run the host-speed probe and file it under `round`.
    pub fn probe(&mut self, round: usize) {
        let p = probe();
        self.at(round).probes.push(p);
    }

    /// File a probe duration measured elsewhere (another thread) under
    /// `round`.
    pub fn add_probe(&mut self, round: usize, seconds: f64) {
        self.at(round).probes.push(seconds);
    }

    /// Record a timing sample of series `name`.
    pub fn sample(&mut self, round: usize, name: &'static str, value: f64) {
        self.at(round).samples.entry(name).or_default().push(value);
    }

    /// Record `work` units done in `busy` time.
    pub fn work(&mut self, round: usize, work: f64, busy: Duration) {
        let r = self.at(round);
        r.work += work;
        r.busy += busy.as_secs_f64();
    }

    /// Merge rounds recorded on another thread, round by round.
    pub fn merge(&mut self, other: Rounds) {
        for (i, r) in other.rounds.into_iter().enumerate() {
            let mine = self.at(i);
            mine.probes.extend(r.probes);
            mine.work += r.work;
            mine.busy += r.busy;
            for (k, v) in r.samples {
                mine.samples.entry(k).or_default().extend(v);
            }
        }
    }

    /// The next free round index.
    pub fn next_round(&self) -> usize {
        self.rounds.len()
    }

    /// Append another set of rounds after ours.
    pub fn append(&mut self, other: Rounds) {
        self.rounds.extend(other.rounds);
    }

    /// Per-round time scale: reference probe / this round's median probe
    /// (rounds without a probe use the mean over all probes).
    fn scales(&self) -> Vec<f64> {
        let all: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|r| r.probes.iter().copied())
            .collect();
        let fallback = if all.is_empty() {
            PROBE_REF_S
        } else {
            all.iter().sum::<f64>() / all.len() as f64
        };
        self.rounds
            .iter()
            .map(|r| {
                let p = quantile(&r.probes, 0.5).unwrap_or(fallback);
                PROBE_REF_S / p
            })
            .collect()
    }

    /// Samples of series `name` over all rounds.
    pub fn count(&self, name: &str) -> usize {
        self.rounds
            .iter()
            .filter_map(|r| r.samples.get(name))
            .map(Vec::len)
            .sum()
    }

    /// The `q`-quantile of series `name` over every sample of the run,
    /// each scaled to reference speed by its own round's probes.
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        let scaled: Vec<f64> = self
            .rounds
            .iter()
            .zip(self.scales())
            .filter_map(|(r, scale)| r.samples.get(name).map(|s| (s, scale)))
            .flat_map(|(s, scale)| s.iter().map(move |v| v * scale))
            .collect();
        quantile(&scaled, q).unwrap_or(0.0)
    }

    /// Median over rounds of the per-round rate (work per busy second),
    /// scaled to reference speed.
    pub fn rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .zip(self.scales())
            .filter(|(r, _)| r.work > 0.0 && r.busy > 0.0)
            .map(|(r, scale)| r.work / (r.busy * scale))
            .collect();
        quantile(&rates, 0.5).unwrap_or(0.0)
    }

    /// Rounds that did work.
    pub fn work_rounds(&self) -> usize {
        self.rounds.iter().filter(|r| r.work > 0.0).count()
    }

    /// Median over rounds of the unscaled per-round rate (printed beside
    /// the scaled one).
    pub fn raw_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| r.work > 0.0 && r.busy > 0.0)
            .map(|r| r.work / r.busy)
            .collect();
        quantile(&rates, 0.5).unwrap_or(0.0)
    }

    /// Mean probe duration over all rounds, seconds.
    pub fn mean_probe(&self) -> f64 {
        let all: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|r| r.probes.iter().copied())
            .collect();
        all.iter().sum::<f64>() / all.len().max(1) as f64
    }
}

/// The process's peak resident set (VmHWM) in MB, or 0 where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.5), Some(1.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), Some(4.6));
    }

    #[test]
    fn rounds_scale_by_probe() {
        let mut r = Rounds::default();
        for round in 0..9 {
            // A host twice as slow in some rounds: the probe and the work
            // slow down alike, so the scaled figures agree.
            let slow = if round % 3 == 0 { 2.0 } else { 1.0 };
            r.add_probe(round, PROBE_REF_S * slow);
            r.work(round, 1000.0, Duration::from_secs_f64(0.5 * slow));
            for i in 0..10 {
                r.sample(round, "lat", slow * (100.0 + i as f64));
            }
        }
        assert!((r.rate() - 2000.0).abs() < 1e-6, "{}", r.rate());
        assert!((r.quantile("lat", 0.0) - 100.0).abs() < 1e-9);
        assert!((r.quantile("lat", 1.0) - 109.0).abs() < 1e-9);
        assert_eq!(r.count("lat"), 90);
        assert_eq!(r.work_rounds(), 9);
        assert_eq!(r.quantile("missing", 0.5), 0.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(8, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
