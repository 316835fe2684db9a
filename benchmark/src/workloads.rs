//! The three workloads. Each is a closed loop on one calling thread: the
//! next pair is sent only after the previous verdict came back.

use std::time::{Duration, Instant};

use graphqe::{GraphQE, Verdict};
use graphqe_serve::{ServeConfig, Server};
use property_graph::rng::DetRng;

use crate::calibrate;
use crate::client::{self, Client};
use crate::corpus::{self, Class, Pair, Tally};
use crate::layers::{self, Counters};
use crate::measure::Measure;
use crate::trace::{Row, Tracer};
use crate::variant;

/// Set-up runs this many times per run; the median is reported.
const SETUP_REPS: usize = 5;

/// The caches an ablation can switch off through existing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    pub parse_cache: bool,
    pub normalize_cache: bool,
    pub search_memo: bool,
    pub plan_cache: bool,
}

impl Knobs {
    pub const ALL_ON: Knobs =
        Knobs { parse_cache: true, normalize_cache: true, search_memo: true, plan_cache: true };

    /// The prover every workload uses: one search thread, caches per knob.
    fn prover(self) -> GraphQE {
        let mut prover = GraphQE { search_threads: 1, ..GraphQE::new() };
        prover.use_parse_cache = self.parse_cache;
        prover.use_normalize_cache = self.normalize_cache;
        prover.search_config.use_memo = self.search_memo;
        prover
    }
}

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub knobs: Knobs,
}

/// What a run hands back for reporting.
pub struct RunResult {
    pub measure: Measure,
    /// Public counter change over the measured window.
    pub counters: Counters,
    pub peak_arena_nodes: usize,
    pub tracer: Tracer,
}

/// The measured window shared by every workload: runs `pass` until
/// `seconds` have elapsed, alternating traced and untraced passes when
/// tracing, and reads the public counters around it.
fn measure_window(
    opts: &RunOpts,
    mut measure: Measure,
    mut pass: impl FnMut(&mut Measure, usize, Option<&mut Tracer>, &mut DetRng),
) -> RunResult {
    // The plan cache has no on/off knob; capacity 0 (clamped to one entry)
    // turns it off in an ablation.
    let plan_capacity =
        (!opts.knobs.plan_cache).then(|| graphqe::counterexample::set_plan_cache_capacity(0));
    let mut rng = DetRng::seed_from_u64(opts.seed);
    let mut tracer = Tracer::new();
    let before = Counters::read();
    gexpr::arena::reset_peak_node_count();
    let window = Instant::now();
    let mut index = 0;
    while window.elapsed() < opts.seconds {
        let traced = opts.trace && index % 2 == 0;
        let kernel_before = calibrate::kernel_time();
        pass(&mut measure, index, traced.then_some(&mut tracer), &mut rng);
        measure.scale_last_pass(calibrate::scale(kernel_before, calibrate::kernel_time()));
        gexpr::arena::note_node_peak(gexpr::arena::thread_store_node_count());
        index += 1;
    }
    let counters = Counters::read().since(&before);
    let peak_arena_nodes = gexpr::arena::peak_node_count();
    if let Some(capacity) = plan_capacity {
        graphqe::counterexample::set_plan_cache_capacity(capacity);
    }
    RunResult { measure, counters, peak_arena_nodes, tracer }
}

/// Times `setup` [`SETUP_REPS`] times, keeping the last result.
fn timed_setup<T>(measure: &mut Measure, mut setup: impl FnMut(bool) -> T) -> T {
    let mut result = None;
    for rep in 0..SETUP_REPS {
        let kernel_before = calibrate::kernel_time();
        let start = Instant::now();
        result = Some(setup(rep + 1 == SETUP_REPS));
        let elapsed = start.elapsed();
        measure.setup(elapsed, calibrate::scale(kernel_before, calibrate::kernel_time()));
    }
    result.expect("SETUP_REPS is positive")
}

fn witness_index(verdict: &Verdict) -> Option<usize> {
    match verdict {
        Verdict::NotEquivalent(example) => Some(example.pool_index),
        _ => None,
    }
}

/// `cold-corpus`: every pass clears all caches, then proves the 296 pairs
/// in a seeded order with `prove_with_stats`.
pub fn cold_corpus(opts: &RunOpts) -> RunResult {
    let prover = opts.knobs.prover();
    let mut measure = Measure::default();
    let corpus = timed_setup(&mut measure, |_| {
        layers::clear_all();
        let corpus = corpus::load();
        // Warm-up: one-time process set-up, not cache state (every timed
        // pass starts from cleared caches).
        for pair in &corpus {
            prover.prove(&pair.left, &pair.right);
        }
        corpus
    });
    measure_window(opts, measure, |measure, pass, mut tracer, rng| {
        layers::clear_all();
        let order = corpus::shuffled(corpus.len(), rng);
        let mut tally = Tally::default();
        let pass_start = Instant::now();
        for &index in &order {
            let pair = &corpus[index];
            let start = Instant::now();
            let (verdict, stats) = prover.prove_with_stats(&pair.left, &pair.right);
            let took = start.elapsed();
            let class = Class::of(&verdict);
            measure.verdict(pair, class, took);
            measure.prove_stats(&stats, took);
            if let Some(pool_index) = witness_index(&verdict) {
                measure.witness(pool_index);
            }
            tally.add(pair.dataset, class);
            if let Some(tracer) = tracer.as_deref_mut() {
                let mut row = tracer.row("pair", pass, &pair.id, start, start.elapsed());
                let prove = row.span(tracer, "prove", Row::ROOT, start, took);
                row.stages(prove, &stats.stages);
                tracer.finish(row, class.name());
            }
        }
        measure.end_pass(order.len(), pass_start.elapsed(), tracer.is_some());
        measure.check_pinned(&tally, pass);
    })
}

/// Emits, serializes, re-parses and checks the certificate of a definite
/// verdict. Returns the four phase times and the JSON size, or what failed.
fn certify(
    prover: &GraphQE,
    pair: &Pair,
    verdict: &Verdict,
) -> Result<([(Instant, Duration); 4], usize), String> {
    let t0 = Instant::now();
    let cert = prover.certificate_for(&pair.left, &pair.right, verdict)?;
    let t1 = Instant::now();
    let text = cert.to_json();
    let t2 = Instant::now();
    let parsed = graphqe::Certificate::from_json(&text).map_err(|e| format!("from_json: {e}"))?;
    let t3 = Instant::now();
    let checked = graphqe_checker::check_certificate(&parsed);
    let t4 = Instant::now();
    checked.map_err(|e| format!("checker rejected the certificate: {e}"))?;
    if parsed != cert {
        return Err("the certificate changed in its JSON round trip".to_string());
    }
    Ok(([(t0, t1 - t0), (t1, t2 - t1), (t2, t3 - t2), (t3, t4 - t3)], text.len()))
}

/// `certified`: caches warmed in set-up; every definite verdict is
/// certified, serialized, parsed back and checked before the next pair.
pub fn certified(opts: &RunOpts) -> RunResult {
    let prover = opts.knobs.prover();
    let mut measure = Measure::default();
    let corpus = timed_setup(&mut measure, |_| {
        layers::clear_all();
        let corpus = corpus::load();
        for pair in &corpus {
            let verdict = prover.prove(&pair.left, &pair.right);
            if !verdict.is_unknown() {
                let _ = certify(&prover, pair, &verdict);
            }
        }
        corpus
    });
    const CERT_SPANS: [&str; 4] = ["cert.emit", "cert.serialize", "checker.parse", "checker.check"];
    measure_window(opts, measure, |measure, pass, mut tracer, rng| {
        let order = corpus::shuffled(corpus.len(), rng);
        let mut tally = Tally::default();
        let pass_start = Instant::now();
        for &index in &order {
            let pair = &corpus[index];
            let start = Instant::now();
            let (verdict, stats) = prover.prove_with_stats(&pair.left, &pair.right);
            let proved = start.elapsed();
            let class = Class::of(&verdict);
            let certified = class.is_definite().then(|| certify(&prover, pair, &verdict));
            let took = start.elapsed();
            measure.verdict(pair, class, took);
            measure.prove_stats(&stats, proved);
            if let Some(pool_index) = witness_index(&verdict) {
                measure.witness(pool_index);
            }
            tally.add(pair.dataset, class);
            match &certified {
                Some(Ok((phases, bytes))) => measure.certificate(phases.map(|p| p.1), *bytes),
                Some(Err(what)) => measure.certificate_failed(&pair.id, what),
                None => {}
            }
            if let Some(tracer) = tracer.as_deref_mut() {
                let mut row = tracer.row("pair", pass, &pair.id, start, start.elapsed());
                let prove = row.span(tracer, "prove", Row::ROOT, start, proved);
                row.stages(prove, &stats.stages);
                if let Some(Ok((phases, _))) = &certified {
                    for (name, (at, duration)) in CERT_SPANS.iter().zip(phases) {
                        row.span(tracer, name, Row::ROOT, *at, *duration);
                    }
                }
                tracer.finish(row, class.name());
            }
        }
        measure.end_pass(order.len(), pass_start.elapsed(), tracer.is_some());
        measure.check_pinned(&tally, pass);
    })
}

/// One scheduled `serve-mixed` request.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    pair: usize,
    /// `Some(tag)` for a fresh variant, `None` for a replay.
    fresh: Option<u64>,
}

/// One block of `serve-mixed`: every corpus pair three times as a replay
/// and once as a fresh variant, in seeded order. Fresh tags are unique over
/// the run, so no variant text repeats.
fn schedule_block(pairs: usize, rng: &mut DetRng, next_tag: &mut u64) -> Vec<Scheduled> {
    let block: Vec<Scheduled> = (0..pairs)
        .flat_map(|pair| {
            let tag = *next_tag + pair as u64;
            (0..3)
                .map(move |_| Scheduled { pair, fresh: None })
                .chain([Scheduled { pair, fresh: Some(tag) }])
        })
        .collect();
    *next_tag += pairs as u64;
    corpus::shuffled(block.len(), rng).into_iter().map(|i| block[i]).collect()
}

/// Sends one pair and checks the reply; `None` when the request failed
/// (already counted). Reconnects after a transport failure.
fn send(
    client: &mut Client,
    measure: &mut Measure,
    id: &str,
    body: &str,
) -> Option<(client::ProveReply, Duration, Instant)> {
    let start = Instant::now();
    let outcome = client.post_prove(body);
    let reply = outcome.as_ref().map(|(status, body)| (*status, client::parse_reply(body)));
    let took = start.elapsed();
    match reply {
        Ok((200, Ok(reply))) => return Some((reply, took, start)),
        Ok((200, Err(what))) => measure.request_failed(id, &format!("malformed response: {what}")),
        Ok((status, _)) => measure.request_failed(id, &format!("HTTP status {status}")),
        Err(error) => measure.request_failed(id, &format!("transport error: {error}")),
    }
    if outcome.is_err() {
        if let Err(error) = client.reconnect() {
            eprintln!("reconnect failed: {error}");
        }
    }
    None
}

/// `serve-mixed`: one keep-alive connection to an in-process server with
/// one worker; three quarters replays, one quarter fresh variants.
pub fn serve_mixed(opts: &RunOpts) -> Result<RunResult, String> {
    let config = ServeConfig { workers: 1, prover: opts.knobs.prover(), ..ServeConfig::default() };
    let mut measure = Measure::default();
    let mut setup_failures = 0;
    let (corpus, server, mut client) = timed_setup(&mut measure, |last| {
        layers::clear_all();
        let corpus = corpus::load();
        let server = Server::spawn(config.clone()).map_err(|e| format!("spawn: {e}"))?;
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        for pair in &corpus {
            let body = client::prove_body(&pair.left, &pair.right);
            match client.post_prove(&body) {
                Ok((200, _)) => {}
                _ => setup_failures += 1,
            }
        }
        if !last {
            // Close the connection first: shutdown joins the worker, which
            // serves this keep-alive connection until it closes.
            drop(client);
            server.shutdown();
            return Ok::<_, String>(None);
        }
        Ok(Some((corpus, server, client)))
    })?
    .expect("the last set-up keeps its server");
    if setup_failures > 0 {
        return Err(format!("{setup_failures} warm-up requests failed"));
    }
    // Variant names start from a seed-derived tag, distinct per request.
    let mut next_tag = DetRng::seed_from_u64(!opts.seed).next_u64() >> 16;
    let result = measure_window(opts, measure, |measure, block_index, mut tracer, rng| {
        let block = schedule_block(corpus.len(), rng, &mut next_tag);
        let bodies: Vec<String> = block
            .iter()
            .map(|request| {
                let pair = &corpus[request.pair];
                let fresh = request.fresh.map(|tag| {
                    measure.variants += 1;
                    variant::variant(&pair.left, &pair.right, tag).unwrap_or_else(|| {
                        measure.variant_fallbacks += 1;
                        (pair.left.clone(), pair.right.clone())
                    })
                });
                let (left, right) =
                    fresh.as_ref().map_or((&pair.left, &pair.right), |v| (&v.0, &v.1));
                client::prove_body(left, right)
            })
            .collect();
        let block_start = Instant::now();
        for (request, body) in block.iter().zip(&bodies) {
            let pair = &corpus[request.pair];
            let Some((reply, took, start)) = send(&mut client, measure, &pair.id, body) else {
                continue;
            };
            let Some(class) = Class::from_wire(&reply.verdict) else {
                measure.request_failed(&pair.id, &format!("unknown verdict {:?}", reply.verdict));
                continue;
            };
            measure.verdict(pair, class, took);
            measure.served(reply.latency_us, took, reply.epoch_resets);
            if let Some(pool_index) = reply.pool_index {
                measure.witness(pool_index as usize);
            }
            if let Some(tracer) = tracer.as_deref_mut() {
                let id = match request.fresh {
                    Some(tag) => format!("{}#{tag:x}", pair.id),
                    None => pair.id.clone(),
                };
                let mut row = tracer.row("request", block_index, &id, start, took);
                let in_band = Duration::from_secs_f64(reply.latency_us / 1e6).min(took);
                row.span(tracer, "serve.prove", Row::ROOT, start, in_band);
                tracer.finish(row, class.name());
            }
        }
        measure.end_pass(block.len(), block_start.elapsed(), tracer.is_some());
    });
    drop(client);
    server.shutdown();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_block_replays_each_pair_three_times_and_sends_one_fresh_variant() {
        let (mut rng, mut next_tag) = (DetRng::seed_from_u64(7), 100);
        let block = schedule_block(5, &mut rng, &mut next_tag);
        assert_eq!(block.len(), 20);
        for pair in 0..5 {
            let requests: Vec<_> = block.iter().filter(|r| r.pair == pair).collect();
            assert_eq!(requests.iter().filter(|r| r.fresh.is_none()).count(), 3);
            assert_eq!(requests.iter().filter(|r| r.fresh.is_some()).count(), 1);
        }
        let next = schedule_block(5, &mut rng, &mut next_tag);
        let mut tags: Vec<u64> = block.iter().chain(&next).filter_map(|r| r.fresh).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 10, "fresh tags never repeat within a run");
        let again = schedule_block(5, &mut DetRng::seed_from_u64(7), &mut 100);
        let order = |b: &[Scheduled]| b.iter().map(|r| (r.pair, r.fresh)).collect::<Vec<_>>();
        assert_eq!(order(&again), order(&block), "the seed fixes the order");
    }
}
