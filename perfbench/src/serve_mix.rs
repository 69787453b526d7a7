//! `serve-mix-n128`: open-loop arrivals into one `AssignmentService`.
//!
//! Half the requests come from streaming tenants, each sending a small
//! perturbation of its previous matrix (the seeded, Step-1-free rung
//! answers them); the other half come from tenants sending unrelated
//! instances, which the host-side usefulness gate sends to the cold rung.
//!
//! One service lives for the whole run and is fed in phases: a phase
//! submits a number of requests, evenly spaced at one offered rate, each
//! at its due virtual time, then drains. The first phase runs at the
//! nominal rate and includes the service's cold start (pool misses).
//! The next phases search for the highest rate that meets the latency
//! limit; after them, nominal-rate phases add host-clock samples until
//! the run's time is spent. Every phase sends the input sequence from its
//! start, so the later phases, which are shorter, all send the same
//! requests and differ only in their rate.

use crate::metrics::{median, tail};
use crate::spans::SpanId;
use crate::{matches_truth, seeds, set_up, Opts, Run, SetupTimes};
use cpu_hungarian::JonkerVolgenant;
use hunipu::{HunIpu, F32_VERIFY_EPS};
use ipu_sim::IpuConfig;
use lsap::{CostMatrix, LsapError};
use rand::{Rng, SeedableRng};
use serve::{AssignmentService, Outcome, Quality, Request, ServiceConfig, ServiceMetrics};
use std::collections::BTreeMap;
use std::time::Instant;

const N: usize = 128;
const K: u64 = 10;
const STREAM_TENANTS: usize = 4;
const FRESH_TENANTS: usize = 4;
/// Rows a streaming tenant changes between requests: n/16.
const CHANGED_ROWS: usize = N / 16;

/// Requests in the nominal phase, which the latency metrics are read
/// from; also the length of the generated input sequence.
const NOMINAL_REQUESTS: usize = 192;
/// Requests in every later phase.
const PHASE_REQUESTS: usize = 64;
/// The offered rate of the first phase, modeled requests per second.
pub const NOMINAL_RPS: f64 = 100.0;
/// Fixed rates tried after the nominal phase.
const PROBE_RPS: [f64; 2] = [200.0, 400.0];
/// Bisection steps between the highest rate that meets the limit and
/// the lowest that misses it: six steps resolve 200 req/s to ~3.
const BISECT_STEPS: usize = 6;
/// The latency limit `max_rate_rps` is judged against, in modeled ms.
pub const LATENCY_LIMIT_MS: f64 = 20.0;

struct Input {
    tenant: String,
    matrix: CostMatrix,
    truth: f64,
    /// The tenant has sent a request of this shape before.
    repeat: bool,
}

/// The request sequence: even requests from the streaming tenants in
/// turn, odd ones from the fresh tenants in turn.
fn generate(seed: u64) -> Vec<(String, CostMatrix, bool)> {
    let mut draws = seeds(seed, 0x5e, NOMINAL_REQUESTS * 2).into_iter();
    let mut last: Vec<Option<CostMatrix>> = vec![None; STREAM_TENANTS];
    let mut out = Vec::with_capacity(NOMINAL_REQUESTS);
    for i in 0..NOMINAL_REQUESTS {
        let mut next = || draws.next().expect("two draws per request");
        if i % 2 == 0 {
            let s = (i / 2) % STREAM_TENANTS;
            let fresh = datasets::gaussian_cost_matrix(N, K, next());
            let matrix = match &last[s] {
                None => fresh,
                Some(prev) => {
                    let mut m = prev.clone();
                    let mut rng = rand::rngs::StdRng::seed_from_u64(next());
                    let mut rows: Vec<usize> = (0..N).collect();
                    for r in 0..CHANGED_ROWS {
                        rows.swap(r, rng.gen_range(r..N));
                        m.row_mut(rows[r]).copy_from_slice(fresh.row(rows[r]));
                    }
                    m
                }
            };
            let repeat = last[s].is_some();
            last[s] = Some(matrix.clone());
            out.push((format!("stream-{s}"), matrix, repeat));
        } else {
            let f = (i / 2) % FRESH_TENANTS;
            let matrix = datasets::gaussian_cost_matrix(N, K, next());
            out.push((format!("fresh-{f}"), matrix, i / 2 >= FRESH_TENANTS));
        }
    }
    out
}

fn setup(opts: &Opts, solver: &HunIpu) -> (Vec<Input>, SetupTimes) {
    let t = Instant::now();
    let generated = generate(opts.seed);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let jv = JonkerVolgenant::new();
    let inputs = generated
        .into_iter()
        .map(|(tenant, matrix, repeat)| Input {
            tenant,
            truth: crate::solves::truth(&jv, &matrix),
            matrix,
            repeat,
        })
        .collect();
    let truth_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    drop(
        solver
            .warm(N)
            .expect("the dense n=128 program compiles on tiny(64)"),
    );
    let compile_s = t.elapsed().as_secs_f64();
    (
        inputs,
        SetupTimes {
            gen_s,
            truth_s,
            compile_s,
        },
    )
}

/// Service counters, as totals or as one phase's increments.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Counters {
    seeded: u64,
    seeded_fallbacks: u64,
    retries: u64,
    rerouted: u64,
    pool_hits: u64,
    pool_misses: u64,
    load_cycles_charged: u64,
}

impl Counters {
    fn of(m: &ServiceMetrics) -> Self {
        Self {
            seeded: m.total(|t| t.seeded),
            seeded_fallbacks: m.total(|t| t.seeded_fallbacks),
            retries: m.total(|t| t.retries),
            rerouted: m.total(|t| t.rerouted),
            pool_hits: m.pool.hits,
            pool_misses: m.pool.misses,
            load_cycles_charged: m.pool.load_cycles_charged,
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            seeded: self.seeded - before.seeded,
            seeded_fallbacks: self.seeded_fallbacks - before.seeded_fallbacks,
            retries: self.retries - before.retries,
            rerouted: self.rerouted - before.rerouted,
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
            load_cycles_charged: self.load_cycles_charged - before.load_cycles_charged,
        }
    }
}

/// The virtual-clock record of one phase: everything that must repeat
/// bit for bit at one seed.
#[derive(Debug, Clone, PartialEq, Default)]
struct Phase {
    rate: f64,
    requests: usize,
    shed: u64,
    /// Per answered request, in submission order: (input index, and
    /// arrival, start and completion in cycles since the phase began,
    /// backend, objective bits).
    answers: Vec<(usize, u64, u64, u64, &'static str, u64)>,
    /// Requests admitted and never answered, or refused for another
    /// reason than a full queue.
    unanswered: u64,
    counters: Counters,
    queue_high_water: usize,
}

/// The host-clock side of one phase.
struct Timing {
    /// Host seconds per answered request: each `submit_at` or
    /// `run_until_idle` call's time since the last call that completed
    /// something, shared equally by the requests it completed.
    per_request_s: Vec<f64>,
    traced: bool,
}

/// One service, fed phase by phase.
struct Server {
    svc: AssignmentService,
    clock_hz: f64,
    /// Phases run so far; also the op id of the next phase's spans.
    phases: u64,
    trace: bool,
}

impl Server {
    fn new(cfg: &IpuConfig, trace: bool) -> Self {
        Self {
            svc: AssignmentService::new(HunIpu::with_config(cfg.clone()), ServiceConfig::default()),
            clock_hz: cfg.clock_hz,
            phases: 0,
            trace,
        }
    }

    /// Feeds `count` requests at `rate` and drains, checking every
    /// answer. A traced run traces every other phase.
    fn phase(
        &mut self,
        inputs: &[Input],
        rate: f64,
        count: usize,
        run: &mut Run,
    ) -> (Phase, Timing) {
        let op = self.phases;
        self.phases += 1;
        let on = self.trace && op.is_multiple_of(2);
        let gap = (self.clock_hz / rate).round() as u64;
        let base = self.svc.now();
        let due = |k: usize| base + (k as u64 + 1) * gap;
        let inputs = &inputs[..count];
        let requests: Vec<Request> = inputs
            .iter()
            .map(|x| Request::new(x.tenant.clone(), x.matrix.clone()))
            .collect();
        let before = Counters::of(self.svc.metrics());
        let mut out = Phase {
            rate,
            requests: count,
            ..Default::default()
        };

        let mut index_of = BTreeMap::new();
        let mut outcomes = Vec::with_capacity(count);
        let mut samples = Vec::with_capacity(count);
        let mut mark = Instant::now();
        let mut collect = |svc: &mut AssignmentService| {
            let done = svc.take_completed();
            if !done.is_empty() {
                let now = Instant::now();
                let per = (now - mark).as_secs_f64() / done.len() as f64;
                samples.extend(std::iter::repeat_n(per, done.len()));
                mark = now;
                outcomes.extend(done);
            }
        };
        let span = run.tracer.begin(on, "op", op, SpanId::NONE);
        for (k, req) in requests.into_iter().enumerate() {
            let s = run.tracer.begin(on, "serve.submit_at", op, span);
            let admitted = self.svc.submit_at(due(k), req);
            run.tracer.end(s);
            collect(&mut self.svc);
            match admitted {
                Ok(id) => {
                    index_of.insert(id, k);
                }
                Err(LsapError::Overloaded { .. }) => out.shed += 1,
                Err(_) => out.unanswered += 1,
            }
        }
        let s = run.tracer.begin(on, "serve.run_until_idle", op, span);
        self.svc.run_until_idle();
        run.tracer.end(s);
        collect(&mut self.svc);
        run.tracer.end(span);

        for outcome in outcomes {
            let Some(&k) = index_of.get(&outcome.id()) else {
                run.fail(format!("phase {op}: an outcome for an id never admitted"));
                continue;
            };
            let r = match outcome {
                Outcome::Done(r) => r,
                Outcome::Failed(rej) => {
                    run.note(format!("phase {op}: request {k} rejected: {}", rej.error));
                    continue;
                }
            };
            let x = &inputs[k];
            // An answer out of order on the clock counts as unanswered.
            if r.arrival != due(k) || r.start < r.arrival || r.completion < r.start {
                run.note(format!(
                    "phase {op}: request {k} due {} has arrival {} start {} completion {}",
                    due(k),
                    r.arrival,
                    r.start,
                    r.completion
                ));
                continue;
            }
            if r.quality != Quality::Exact
                || r.certificate
                    .verify(&x.matrix, &r.assignment, F32_VERIFY_EPS)
                    .is_err()
                || !matches_truth(&x.matrix, &r.assignment, r.objective, x.truth)
            {
                run.wrong(format!(
                    "phase {op}: request {k} answered {} by {} ({:?}), JV ground truth is {}",
                    r.objective, r.backend, r.quality, x.truth
                ));
            }
            let rel = |t: u64| t - base;
            let bits = r.objective.to_bits();
            out.answers.push((
                k,
                rel(r.arrival),
                rel(r.start),
                rel(r.completion),
                r.backend,
                bits,
            ));
        }
        out.answers.sort_unstable();
        out.unanswered += (index_of.len() - out.answers.len()) as u64;
        out.counters = Counters::of(self.svc.metrics()).since(before);
        out.queue_high_water = self.svc.metrics().queue_high_water;

        run.attempted += count as u64;
        // Shedding is how an overloaded rate shows; it counts as failed
        // only at the nominal rate, which must serve everything.
        if rate == NOMINAL_RPS {
            for _ in 0..out.shed {
                run.fail(format!(
                    "phase {op}: a request was shed at the nominal rate"
                ));
            }
        }
        for _ in 0..out.unanswered {
            run.fail(format!(
                "phase {op}: a request went unanswered at {rate} req/s"
            ));
        }
        let timing = Timing {
            per_request_s: samples,
            traced: on,
        };
        (out, timing)
    }
}

/// Modeled-clock summary of a phase, in ms.
struct Summary {
    latency: Vec<f64>,
    queue_wait: Vec<f64>,
    service: Vec<f64>,
    busy_ms: f64,
    span_ms: f64,
}

fn summarize(p: &Phase, clock_hz: f64) -> Summary {
    let ms = |cycles: u64| cycles as f64 * 1e3 / clock_hz;
    let mut s = Summary {
        latency: Vec::new(),
        queue_wait: Vec::new(),
        service: Vec::new(),
        busy_ms: 0.0,
        span_ms: 0.0,
    };
    // Batch members share a start; the device is busy from it until the
    // batch's last completion.
    let mut batches: BTreeMap<u64, u64> = BTreeMap::new();
    for &(_, arrival, start, completion, _, _) in &p.answers {
        s.latency.push(ms(completion - arrival));
        s.queue_wait.push(ms(start - arrival));
        s.service.push(ms(completion - start));
        let end = batches.entry(start).or_insert(completion);
        *end = (*end).max(completion);
    }
    s.busy_ms = ms(batches.iter().map(|(start, end)| end - start).sum());
    let first_arrival = p.answers.iter().map(|a| a.1).min().unwrap_or(0);
    let last_completion = p.answers.iter().map(|a| a.3).max().unwrap_or(0);
    s.span_ms = ms(last_completion - first_arrival);
    s
}

/// Whether a phase meets the latency limit: every request answered and
/// none shed, the tail latency under the limit, and no growing backlog,
/// meaning the device's busy time per request fits in the gap between
/// arrivals.
fn meets_limit(p: &Phase, clock_hz: f64) -> bool {
    let s = summarize(p, clock_hz);
    p.shed == 0
        && p.unanswered == 0
        && p.answers.len() == p.requests
        && !s.latency.is_empty()
        && tail(&s.latency).0 <= LATENCY_LIMIT_MS
        && p.rate * s.busy_ms < 1e3 * p.requests as f64
}

/// The nominal phase, then the search for the highest rate that meets
/// the limit: the probe rates, then `bisect_steps` halvings of the
/// bracket they leave. Returns the phases in order and the rate found.
fn search(
    server: &mut Server,
    inputs: &[Input],
    run: &mut Run,
    bisect_steps: usize,
) -> (Vec<Phase>, f64) {
    let clock_hz = server.clock_hz;
    let mut phases = vec![server.phase(inputs, NOMINAL_RPS, NOMINAL_REQUESTS, run).0];
    let (mut lo, mut hi): (Option<f64>, Option<f64>) = (None, None);
    if meets_limit(&phases[0], clock_hz) {
        lo = Some(NOMINAL_RPS);
    }
    for rate in PROBE_RPS {
        let p = server.phase(inputs, rate, PHASE_REQUESTS, run).0;
        if meets_limit(&p, clock_hz) {
            lo = Some(lo.map_or(rate, |l| l.max(rate)));
        } else {
            hi = Some(hi.map_or(rate, |h| h.min(rate)));
        }
        phases.push(p);
    }
    for _ in 0..bisect_steps {
        let (Some(l), Some(h)) = (lo, hi) else { break };
        if l >= h {
            break;
        }
        let rate = 0.5 * (l + h);
        let p = server.phase(inputs, rate, PHASE_REQUESTS, run).0;
        if meets_limit(&p, clock_hz) {
            lo = Some(rate);
        } else {
            hi = Some(rate);
        }
        phases.push(p);
    }
    (phases, lo.unwrap_or(0.0))
}

/// Runs `serve-mix-n128`.
pub fn serve_mix(opts: &Opts) -> Run {
    let mut cfg = IpuConfig::tiny(64);
    cfg.host_threads = opts.threads;
    let warmup = HunIpu::with_config(cfg.clone());
    let (inputs, mut run, times) = set_up(|| setup(opts, &warmup));
    let clock_hz = cfg.clock_hz;

    let start = Instant::now();
    let mut server = Server::new(&cfg, opts.trace);
    let (phases, max_rate) = search(&mut server, &inputs, &mut run, BISECT_STEPS);
    // Repeats of one nominal-rate phase give the host-clock metrics. They
    // do identical work, so they must match on the virtual clock, and
    // each request's fastest repeat is the one least slowed by other load
    // on the machine.
    let mut repeats: Vec<(Phase, Timing)> = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if repeats.len() >= 2 && elapsed + elapsed / server.phases as f64 > opts.seconds {
            break;
        }
        let (p, t) = server.phase(&inputs, NOMINAL_RPS, PHASE_REQUESTS, &mut run);
        if repeats.first().is_some_and(|first| first.0 != p) {
            run.fail(format!(
                "phase {}: a repeat differs on the virtual clock from the first repeat",
                server.phases - 1
            ));
        }
        repeats.push((p, t));
    }
    // Identical phases complete their requests in the same order, in the
    // same calls, so the samples line up position by position.
    let fastest = |traced: Option<bool>| -> Vec<f64> {
        let mut best = vec![f64::INFINITY; PHASE_REQUESTS];
        for (_, t) in repeats
            .iter()
            .filter(|(_, t)| traced.is_none_or(|on| t.traced == on))
        {
            for (b, &x) in best.iter_mut().zip(&t.per_request_s) {
                *b = b.min(x);
            }
        }
        best.retain(|x| x.is_finite());
        best
    };
    let best = fastest(None);

    let nominal = &phases[0];
    let s = summarize(nominal, clock_hz);
    let answered = nominal.answers.len().max(1) as f64;
    let l = &mut run.layer;
    l.put("wall_p50_s", median(&best), "s");
    let (wall_tail, wall_pct) = tail(&best);
    l.put("wall_tail_s", wall_tail, "s");
    let busy: f64 = best.iter().sum();
    l.put(
        "ops_per_s",
        if busy > 0.0 {
            best.len() as f64 / busy
        } else {
            0.0
        },
        "1/s",
    );
    let e = &mut run.e2e;
    e.put("device_ms_per_op", s.busy_ms / answered, "ms");
    e.put("latency_p50_ms", median(&s.latency), "ms");
    let (lat_tail, lat_pct) = tail(&s.latency);
    e.put("latency_tail_ms", lat_tail, "ms");
    e.put("max_rate_rps", max_rate, "req/s");
    run.note(format!(
        "{} phases, {} in the rate search; host metrics from each request's fastest of {} repeats; \
         wall_tail_s is p{wall_pct:.1} of {} requests",
        server.phases,
        phases.len(),
        repeats.len(),
        best.len()
    ));
    run.note(format!(
        "latency_tail_ms is p{lat_pct:.1} of {} requests at the nominal {NOMINAL_RPS} req/s; limit {LATENCY_LIMIT_MS} ms",
        s.latency.len(),
    ));
    for p in &phases {
        let ps = summarize(p, clock_hz);
        run.note(format!(
            "rate {:>7.2} req/s: p50 {:7.3} ms, tail {:7.3} ms, device {:.3} ms/req, shed {}, {}",
            p.rate,
            median(&ps.latency),
            tail(&ps.latency).0,
            ps.busy_ms / p.requests as f64,
            p.shed,
            if meets_limit(p, clock_hz) {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
    }

    let c = nominal.counters;
    let count = |backend: &str| nominal.answers.iter().filter(|a| a.4 == backend).count() as f64;
    let l = &mut run.layer;
    // The pool compiles inside the service; each miss costs about one
    // warm-up compile, measured in set-up.
    l.put(
        "hunipu.compile_s",
        times.compile_s * c.pool_misses as f64 / answered,
        "s",
    );
    l.put(
        "hunipu.program_load_cycles",
        c.load_cycles_charged as f64 / answered,
        "cycles",
    );
    l.put("serve.queue_wait_p50_ms", median(&s.queue_wait), "ms");
    l.put("serve.queue_wait_tail_ms", tail(&s.queue_wait).0, "ms");
    l.put("serve.service_p50_ms", median(&s.service), "ms");
    let busy_frac = if s.span_ms > 0.0 {
        s.busy_ms / s.span_ms
    } else {
        0.0
    };
    l.put("serve.device_busy_frac", busy_frac, "frac");
    l.put("serve.rung.seeded", c.seeded as f64, "count");
    l.put(
        "serve.rung.hunipu",
        count("hunipu") - c.seeded as f64,
        "count",
    );
    l.put("serve.rung.cpu", count("cpu-jv"), "count");
    l.put("serve.rung.greedy", count("greedy"), "count");
    let repeats = inputs.iter().filter(|x| x.repeat).count().max(1);
    l.put(
        "serve.seeded_ratio",
        c.seeded as f64 / repeats as f64,
        "ratio",
    );
    l.put("serve.seeded_fallbacks", c.seeded_fallbacks as f64, "count");
    l.put("serve.retries", c.retries as f64, "count");
    l.put("serve.rerouted", c.rerouted as f64, "count");
    l.put("serve.shed", nominal.shed as f64, "count");
    l.put(
        "serve.queue_high_water",
        nominal.queue_high_water as f64,
        "count",
    );
    l.put("serve.pool_hits", c.pool_hits as f64, "count");
    l.put("serve.pool_misses", c.pool_misses as f64, "count");
    l.put(
        "serve.load_cycles_charged",
        c.load_cycles_charged as f64,
        "cycles",
    );
    // One `submit_at` span per traced request and one drain per traced
    // phase: both per request.
    let (submit_s, submits) = run.tracer.mean_s("serve.submit_at");
    let (drain_s, drains) = run.tracer.mean_s("serve.run_until_idle");
    l.put("serve.submit_s", submit_s, "s");
    l.put(
        "serve.drain_s",
        drain_s * drains as f64 / submits.max(1) as f64,
        "s",
    );
    let (traced, untraced) = (fastest(Some(true)), fastest(Some(false)));
    let overhead = if traced.is_empty() || untraced.is_empty() {
        0.0
    } else {
        crate::metrics::mean(&traced) - crate::metrics::mean(&untraced)
    };
    l.put("trace.overhead_s", overhead, "s");
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_wait_plus_service_is_latency_exactly() {
        let p = Phase {
            answers: vec![(0, 10, 15, 40, "hunipu", 0), (1, 12, 15, 77, "hunipu", 0)],
            ..Default::default()
        };
        let s = summarize(&p, 1e3);
        for ((l, q), v) in s.latency.iter().zip(&s.queue_wait).zip(&s.service) {
            assert_eq!(q + v, *l);
        }
        assert_eq!(s.busy_ms, 62.0, "one batch from 15 to 77");
        assert_eq!(s.span_ms, 67.0);
    }

    #[test]
    fn two_runs_at_one_seed_are_bit_identical_on_the_virtual_clock() {
        let opts = Opts {
            workload: "serve-mix-n128".into(),
            seed: 5,
            seconds: 1.0,
            trace: false,
            threads: 1,
        };
        let cfg = IpuConfig::tiny(64);
        let (inputs, _) = setup(&opts, &HunIpu::with_config(cfg.clone()));
        let mut run = Run::new(0.0);
        let a = search(&mut Server::new(&cfg, false), &inputs, &mut run, 1);
        let b = search(&mut Server::new(&cfg, true), &inputs, &mut run, 1);
        assert_eq!(a, b);
        assert_eq!(run.failed, 0, "{:?}", run.notes);
        let nominal = &a.0[0];
        assert_eq!(nominal.answers.len(), NOMINAL_REQUESTS);
        assert!(
            nominal.counters.seeded > 0,
            "streamed requests take the seeded rung"
        );
        assert_eq!(
            nominal.counters.pool_misses, 1,
            "the cold start compiles once"
        );
        assert!(a.1 > NOMINAL_RPS, "the search finds a rate above nominal");
    }

    #[test]
    fn the_request_mix_is_half_streamed() {
        let g = generate(3);
        assert_eq!(g.len(), NOMINAL_REQUESTS);
        let streamed = g.iter().filter(|x| x.0.starts_with("stream-")).count();
        assert_eq!(streamed, NOMINAL_REQUESTS / 2);
        // A streaming tenant's next matrix differs from its previous one
        // in exactly CHANGED_ROWS rows.
        let s0: Vec<&CostMatrix> = g
            .iter()
            .filter(|x| x.0 == "stream-0")
            .map(|x| &x.1)
            .collect();
        let differing = (0..N).filter(|&r| s0[0].row(r) != s0[1].row(r)).count();
        assert_eq!(differing, CHANGED_ROWS);
        let again: Vec<CostMatrix> = generate(3).into_iter().map(|x| x.1).collect();
        assert!(
            again.iter().zip(&g).all(|(a, b)| *a == b.1),
            "same seed, same inputs"
        );
    }
}
