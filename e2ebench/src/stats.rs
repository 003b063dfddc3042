//! Sample statistics, process memory, digests and the result report.

use std::fmt::Write as _;
use std::time::Instant;

/// A timed interval shorter than this is never reported from a single
/// sample: one short sample is mostly timer and scheduler noise.
pub const MIN_SINGLE_SAMPLE_S: f64 = 0.010;

/// Quantile `q` in `[0, 1]` of `v` by linear interpolation between
/// closest ranks (the "inclusive" method of Python's `statistics`).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of an empty sample");
    v.iter().sum::<f64>() / v.len() as f64
}

/// The passes of a timed phase after the first: the first pass of a
/// process warms caches, the allocator and the thread pool, and is the
/// reference the checks compare later passes against.
pub fn after_warmup(walls: &[f64]) -> &[f64] {
    assert!(walls.len() >= 3, "a timed phase needs at least 3 passes");
    &walls[1..]
}

/// Nearest-rank percentile of a large latency sample (`p` in `[0, 100]`),
/// selected in place without a full sort.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, v.len()) - 1;
    *v.select_nth_unstable_by(idx, f64::total_cmp).1
}

/// A field of `/proc/self/status` (`VmHWM`, `VmRSS`, ...) in MiB.
pub fn proc_status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    kib / 1024.0
}

/// Run `f` repeatedly until at least `min_reps` runs and `min_total_s`
/// seconds have passed (capped at `max_reps`); return every run's
/// duration in seconds and the last result.
pub fn repeat_timed<R>(
    min_reps: usize,
    max_reps: usize,
    min_total_s: f64,
    mut f: impl FnMut() -> R,
) -> (Vec<f64>, R) {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
        let enough = samples.len() >= min_reps && start.elapsed().as_secs_f64() >= min_total_s;
        if enough || samples.len() >= max_reps {
            return (samples, r);
        }
    }
}

/// One batch of set-up repetitions (at least 3, and at least 20 ms);
/// appends the batch's mean repetition time to `samples` and returns the
/// last repetition's result. One sample per batch, not per repetition: a
/// µs-scale repetition is either quick or hit by a page fault or an
/// allocator slow path, and the median of such a two-peaked sample jumps
/// between the peaks from run to run, while batch means do not. Batches
/// run before the timed phase and between its passes, outside the timed
/// intervals, so the set-up median samples the same machine conditions
/// as the passes rather than one short burst at start-up.
pub fn setup_batch<R>(samples: &mut Vec<f64>, f: impl FnMut() -> R) -> R {
    let (s, r) = repeat_timed(3, 100_000, 0.020, f);
    samples.push(s.iter().sum::<f64>() / s.len() as f64);
    r
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The committed reference digest for `key` at [`crate::DEFAULT_SEED`].
pub fn reference(key: &str) -> Option<&'static str> {
    include_str!("../reference.txt")
        .lines()
        .filter_map(|l| l.split_once(char::is_whitespace))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.trim())
}

/// 64-bit FNV-1a: a digest that is stable across processes, platforms and
/// toolchains (unlike `DefaultHasher`), for committed reference values.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Deterministic seeded RNG for the benchmark's own input generation.
pub fn rng(seed: u64, stream: u64) -> han_sim::SimRng {
    han_sim::SimRng::seeded(seed).stream(stream)
}

/// Everything one run reports: metrics, deterministic counts, checks and
/// the attempted/failed operation tally.
pub struct Report {
    workload: String,
    metrics: Vec<(String, f64, &'static str)>,
    /// Figures printed by name beside the metrics but kept out of the JSON
    /// result.
    extras: Vec<(String, f64, &'static str)>,
    counts: Vec<(String, u64)>,
    drift: Vec<String>,
    failures: Vec<String>,
    refused: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new(workload: &str) -> Self {
        Report {
            workload: workload.to_string(),
            metrics: Vec::new(),
            extras: Vec::new(),
            counts: Vec::new(),
            drift: Vec::new(),
            failures: Vec::new(),
            refused: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Report one metric value.
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A figure printed by name with its unit, outside the JSON result.
    pub fn extra(&mut self, name: &str, unit: &'static str, value: f64) {
        self.extras.push((name.to_string(), value, unit));
    }

    /// Report a per-layer metric (unit from [`crate::PER_LAYER`]).
    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = crate::PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
            .1;
        self.metric(name, unit, value);
    }

    /// Report 0 for every metric of `list` this run did not measure, and
    /// order the metrics as `list` does.
    pub fn fill_missing(&mut self, list: &[(&str, &'static str)]) {
        for &(name, unit) in list {
            if !self.metrics.iter().any(|m| m.0 == name) {
                self.metrics.push((name.to_string(), 0.0, unit));
            }
        }
        let pos = |n: &str| list.iter().position(|m| m.0 == n).unwrap_or(usize::MAX);
        self.metrics.sort_by_key(|m| pos(&m.0));
    }

    /// Report the median of repeated timings, after the noise guard: a
    /// metric resting on one timed interval shorter than
    /// [`MIN_SINGLE_SAMPLE_S`] is refused (the run then fails).
    pub fn timed(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        if self.guard(name, samples) {
            self.describe(name, unit, samples);
            self.metric(name, unit, median(samples));
        }
    }

    /// Report `wall_s` and `ops_per_s` of a timed phase whose passes each
    /// do `ops` operations: the mean pass time over the whole phase (its
    /// total time over its passes) and the rate that gives. Every pass
    /// does the same work, so the spread between passes is interference
    /// from the host, in bursts of a few seconds on a shared VM; the mean
    /// weighs each burst by how long it lasted, while the median of such a
    /// broad sample jumps with how the bursts fell. Over sets of five or
    /// six runs, the run means of the tuning and synthesis workloads
    /// spread 10–35% less than their run medians.
    pub fn per_pass(&mut self, walls: &[f64], ops: f64) {
        if !self.guard("wall_s", walls) {
            return;
        }
        self.describe("wall_s", "s", walls);
        let wall = mean(walls);
        println!(
            "  wall_s: mean of {} passes {wall:.6} s, {ops} operations per pass",
            walls.len()
        );
        self.metric("wall_s", "s", wall);
        self.metric("ops_per_s", "1/s", ops / wall);
    }

    /// The noise guard: whether `samples` may back a metric.
    fn guard(&mut self, name: &str, samples: &[f64]) -> bool {
        if samples.len() < 2 && samples.iter().all(|&s| s < MIN_SINGLE_SAMPLE_S) {
            self.refused.push(format!(
                "{name}: one timed sample of {:?} s is below the {MIN_SINGLE_SAMPLE_S} s noise floor",
                samples
            ));
            return false;
        }
        true
    }

    fn describe(&self, name: &str, unit: &str, samples: &[f64]) {
        let q1 = quantile(samples, 0.25);
        let q3 = quantile(samples, 0.75);
        println!(
            "  {name}: {} samples, median {:.6}, quartiles {q1:.6} .. {q3:.6} {unit}",
            samples.len(),
            median(samples)
        );
    }

    /// A count that must repeat exactly between runs of the same code on
    /// the same seed.
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    /// Record that a deterministic count changed between repetitions
    /// inside this run.
    pub fn flag_drift(&mut self, what: String) {
        println!("NONDETERMINISM: {what}");
        self.drift.push(what);
    }

    /// Record one output check; a failed check fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let w = what();
            println!("CHECK FAILED: {w}");
            self.failures.push(w);
        }
    }

    /// Output checks failed so far.
    pub fn failures(&self) -> usize {
        self.failures.len()
    }

    pub fn info(&self, line: &str) {
        println!("  {line}");
    }

    /// Print the human-readable summary, the deterministic counts and the
    /// final JSON result line; exit non-zero if any check failed or a
    /// metric was refused.
    pub fn finish(self) -> ! {
        for r in &self.refused {
            println!("REFUSED: {r}");
        }
        for (n, v, u) in self.metrics.iter().chain(&self.extras) {
            println!("{}: {n} = {v} {u}", self.workload);
        }
        let mut counts = String::new();
        for (i, (n, v)) in self.counts.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(counts, "{sep}\"{n}\": {v}").unwrap();
        }
        let drift: Vec<String> = self.drift.iter().map(|d| format!("{d:?}")).collect();
        println!("COUNTS {{{counts}}}");
        println!("DRIFT [{}]", drift.join(", "));
        // A failed output check means at least one operation returned a
        // wrong answer, even when the workload could not say which.
        let failed = if self.failures.is_empty() {
            self.failed
        } else {
            self.failed.max(1)
        };
        let ok = self.failures.is_empty() && self.refused.is_empty() && failed == 0;
        let error_rate = failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{}: error_rate = {error_rate} fraction ({failed} failed of {} attempted)",
            self.workload, self.attempted
        );
        let mut metrics = String::new();
        for (i, (n, v, u)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"
            )
            .unwrap();
        }
        println!(
            "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            failed
        );
        std::process::exit(if ok { 0 } else { 3 });
    }
}
