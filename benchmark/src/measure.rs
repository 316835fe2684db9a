//! What one run accumulates, and the metrics it reports.

use std::time::Duration;

use graphqe::ProofStats;

use crate::corpus::{Class, Pair, Tally};
use crate::layers::{self, Counters};
use crate::trace::{Tracer, LAYERS};

/// Failures printed in full; later ones are only counted.
const PRINTED_FAILURES: u64 = 40;

/// Pairs per latency window; a window's p99 has ten samples beyond it.
const WINDOW_SAMPLES: usize = 1000;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// Everything a run accumulates while it measures.
#[derive(Debug, Default)]
pub struct Measure {
    /// Set-up durations at the reference speed, one per repetition.
    setup_s: Vec<f64>,
    /// Per-pair (per-request) time to verdict, in pass order.
    latencies: Vec<Duration>,
    passes: Vec<Pass>,
    pairs: u64,
    definite: u64,
    /// Operations attempted: pairs, pinned-count checks and certificates.
    attempted: u64,
    failed: u64,
    /// Definite verdicts against the label; any one fails the command.
    pub wrong_verdicts: u64,

    /// Stage sums over in-process proves, nanoseconds:
    /// parse, analyze, normalize, build, decide, search, unattributed.
    stage_ns: [u64; 7],
    proves: u64,
    pool_index: (f64, u64),
    /// Certificate sums, nanoseconds: emit, serialize, checker parse, check.
    cert_ns: [u64; 4],
    cert_bytes: u64,
    certificates: u64,
    /// Server-reported prove time and client-side remainder, microseconds.
    serve_us: (f64, f64),
    requests: u64,
    epoch_resets: f64,
    pub variants: u64,
    pub variant_fallbacks: u64,
}

/// One closed pass over the corpus (or one `serve-mixed` block).
#[derive(Debug)]
struct Pass {
    pairs: usize,
    elapsed: Duration,
    traced: bool,
    /// This pass's entries in `Measure::latencies`.
    latencies: std::ops::Range<usize>,
    /// Takes this pass's times to the reference speed (see `calibrate`).
    scale: f64,
}

impl Pass {
    /// Pairs per reference second.
    fn rate(&self) -> f64 {
        self.pairs as f64 / (self.elapsed.as_secs_f64() * self.scale)
    }
}

impl Measure {
    /// Counts a failed operation and prints it with the pair id.
    fn fail(&mut self, id: &str, what: &str) {
        self.failed += 1;
        if self.failed <= PRINTED_FAILURES {
            eprintln!("FAIL {id}: {what}");
        }
    }

    /// Records one pair's verdict and time to verdict, checking the label.
    pub fn verdict(&mut self, pair: &Pair, class: Class, latency: Duration) {
        self.pairs += 1;
        self.attempted += 1;
        self.latencies.push(latency);
        if class.is_definite() {
            self.definite += 1;
        }
        if pair.contradicts(class) {
            self.wrong_verdicts += 1;
            self.fail(
                &pair.id,
                &format!("definite verdict {} contradicts the label", class.name()),
            );
        }
    }

    /// Records the stage breakdown of an in-process prove that took
    /// `latency` from call to return.
    pub fn prove_stats(&mut self, stats: &ProofStats, latency: Duration) {
        let s = &stats.stages;
        let stages = [s.parse, s.analyze, s.normalize, s.build, s.decide, s.search];
        for (sum, stage) in self.stage_ns.iter_mut().zip(stages) {
            *sum += stage.as_nanos() as u64;
        }
        let staged: Duration = stages.iter().sum();
        self.stage_ns[6] += latency.saturating_sub(staged).as_nanos() as u64;
        self.proves += 1;
    }

    /// Records the pool position of a counterexample witness.
    pub fn witness(&mut self, pool_index: usize) {
        self.pool_index.0 += pool_index as f64;
        self.pool_index.1 += 1;
    }

    /// Records one certificate's emit, serialize, parse and check times.
    pub fn certificate(&mut self, times: [Duration; 4], bytes: usize) {
        for (sum, time) in self.cert_ns.iter_mut().zip(times) {
            *sum += time.as_nanos() as u64;
        }
        self.cert_bytes += bytes as u64;
        self.certificates += 1;
        self.attempted += 1;
    }

    /// Counts a certificate that could not be emitted, parsed or checked.
    pub fn certificate_failed(&mut self, id: &str, what: &str) {
        self.attempted += 1;
        self.fail(id, what);
    }

    /// Records the server-side prove time of one request and the client
    /// latency around it.
    pub fn served(&mut self, latency_us: f64, client: Duration, epoch_resets: f64) {
        self.serve_us.0 += latency_us;
        self.serve_us.1 += client.as_secs_f64() * 1e6 - latency_us;
        self.requests += 1;
        self.epoch_resets += epoch_resets;
    }

    /// Counts a request that got no usable response.
    pub fn request_failed(&mut self, id: &str, what: &str) {
        self.pairs += 1;
        self.attempted += 1;
        self.fail(id, what);
    }

    /// Records one set-up repetition and its speed scale.
    pub fn setup(&mut self, elapsed: Duration, scale: f64) {
        self.setup_s.push(elapsed.as_secs_f64() * scale);
    }

    /// Closes a pass of `pairs` pairs that took `elapsed`.
    pub fn end_pass(&mut self, pairs: usize, elapsed: Duration, traced: bool) {
        let start = self.passes.last().map_or(0, |pass| pass.latencies.end);
        let latencies = start..self.latencies.len();
        self.passes.push(Pass { pairs, elapsed, traced, latencies, scale: 1.0 });
    }

    /// Sets the speed scale of the pass just closed.
    pub fn scale_last_pass(&mut self, scale: f64) {
        if let Some(pass) = self.passes.last_mut() {
            pass.scale = scale;
        }
    }

    /// The median speed scale over all passes.
    fn run_scale(&self) -> f64 {
        median(&mut self.passes.iter().map(|pass| pass.scale).collect::<Vec<_>>())
    }

    /// Median pairs per reference second over the traced or untraced passes.
    fn median_rate(&self, traced: bool) -> f64 {
        let mut rates: Vec<f64> =
            self.passes.iter().filter(|p| p.traced == traced).map(Pass::rate).collect();
        median(&mut rates)
    }

    /// Checks a whole-corpus pass against the pinned verdict counts.
    pub fn check_pinned(&mut self, tally: &Tally, pass: usize) {
        self.attempted += 1;
        for mismatch in tally.pinned_mismatches() {
            self.fail(&format!("pass {pass}"), &mismatch);
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.max(1)
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Sample counts for the report header.
    pub fn samples(&self) -> String {
        format!(
            "passes={} pairs={} latency_samples={} latency_windows_of_{WINDOW_SAMPLES}={} setup_reps={} speed_scale={:.4}",
            self.passes.len(),
            self.pairs,
            self.latencies.len(),
            self.latency_windows().len(),
            self.setup_s.len(),
            self.run_scale()
        )
    }

    /// Per-window `(p50, p99)` latencies at the reference speed. A window
    /// is the next run of consecutive untraced passes holding at least
    /// [`WINDOW_SAMPLES`] pairs, so its p99 has ten samples beyond it; a run
    /// too short for one full window gets one partial window.
    fn latency_windows(&self) -> Vec<(f64, f64)> {
        let close = |window: &mut Vec<f64>| {
            window.sort_by(f64::total_cmp);
            let percentiles = (percentile(window, 0.50), percentile(window, 0.99));
            window.clear();
            percentiles
        };
        let (mut windows, mut window) = (Vec::new(), Vec::new());
        for pass in self.passes.iter().filter(|pass| !pass.traced) {
            let scaled = self.latencies[pass.latencies.clone()].iter();
            window.extend(scaled.map(|d| d.as_secs_f64() * pass.scale));
            if window.len() >= WINDOW_SAMPLES {
                windows.push(close(&mut window));
            }
        }
        if windows.is_empty() && !window.is_empty() {
            windows.push(close(&mut window));
        }
        windows
    }

    /// The end-to-end metrics, at the reference speed. Every pass does the
    /// same work, so throughput is the median pass's; the latency
    /// percentiles are medians over windows, so a stall that hits one
    /// window stays out of the tail.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let (mut p50s, mut p99s): (Vec<f64>, Vec<f64>) = self.latency_windows().into_iter().unzip();
        let (p50, p99) = (median(&mut p50s), median(&mut p99s));
        vec![
            metric("pairs_per_s", self.median_rate(false), "1/s"),
            metric("latency_p50_ms", p50 * 1e3, "ms"),
            metric("latency_p99_ms", p99 * 1e3, "ms"),
            metric("decided_ratio", ratio(self.definite, self.pairs), "ratio"),
            metric("setup_s", median(&mut self.setup_s.clone()), "s"),
            metric("peak_rss_mb", layers::peak_rss_mb(), "MiB"),
        ]
    }

    /// The per-layer metrics: `counters` is the change of the public cache
    /// counters over the measured window, `peak_arena_nodes` the arena
    /// high-water mark in it, and `tracer` the traced passes' spans.
    pub fn per_layer(
        &self,
        counters: &Counters,
        peak_arena_nodes: usize,
        tracer: &Tracer,
    ) -> Vec<Metric> {
        let per = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
        // Times at the reference speed, like the end-to-end metrics.
        let scale = self.run_scale();
        let us = |ns: u64, n: u64| per(ns as f64 / 1e3 * scale, n);
        let mut out = Vec::new();
        let stages = ["parse", "analyze", "normalize", "build", "decide", "search", "unattributed"];
        for (stage, ns) in stages.iter().zip(self.stage_ns) {
            out.push(metric(format!("stage.{stage}.us"), us(ns, self.proves), "us"));
        }
        for (cache, counts) in counters.caches() {
            out.push(metric(
                format!("cache.{cache}.hit_ratio"),
                layers::hit_ratio(counts),
                "ratio",
            ));
        }
        for &(cache, (_, _, evictions)) in &counters.caches()[..4] {
            let per_kpair = per(evictions as f64 * 1000.0, self.pairs);
            out.push(metric(format!("cache.{cache}.evictions"), per_kpair, "count/kpair"));
        }
        out.push(metric(
            "search.witness_pool_index.mean",
            per(self.pool_index.0, self.pool_index.1),
            "index",
        ));
        let (builds, build_ns) = counters.index_builds;
        out.push(metric("property-graph.index_builds", per(builds as f64, self.pairs), "count"));
        out.push(metric("property-graph.index_build.us", us(build_ns, self.pairs), "us"));
        out.push(metric("gexpr.peak_arena_nodes", peak_arena_nodes as f64, "count"));
        out.push(metric("serve.epoch_resets", self.epoch_resets, "count"));
        let cert = ["cert.emit.us", "cert.serialize.us", "checker.parse.us", "checker.check.us"];
        for (name, ns) in cert.iter().zip(self.cert_ns) {
            out.push(metric(*name, us(ns, self.certificates), "us"));
        }
        out.push(metric("cert.bytes", per(self.cert_bytes as f64, self.certificates), "bytes"));
        out.push(metric("serve.prove.us", per(self.serve_us.0 * scale, self.requests), "us"));
        out.push(metric("serve.overhead.us", per(self.serve_us.1 * scale, self.requests), "us"));
        out.push(metric(
            "variant.fallback_ratio",
            ratio(self.variant_fallbacks, self.variants),
            "ratio",
        ));
        let self_us = tracer.self_us_per_row();
        for layer in LAYERS {
            out.push(metric(format!("self.{layer}.us"), self_us[layer] * scale, "us"));
        }
        let overhead = self.median_rate(false) / self.median_rate(true);
        out.push(metric("trace.overhead_ratio", overhead, "ratio"));
        out
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The median (mean of the middle two for an even count); 0 when empty.
fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples; zero when empty.
fn percentile(sorted: &[f64], fraction: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * fraction).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
