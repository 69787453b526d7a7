//! Closed-loop workloads: one caller making cold solves back to back.
//!
//! `dense-n256` compiles and runs the dense program for every solve on
//! the Mk2 model; `tiled-n4096` solves beyond-SRAM instances through the
//! tiled block-streaming path on `IpuConfig::tiny(64)`.

use crate::metrics::{median, tail};
use crate::spans::{SpanId, Tracer};
use crate::{device::DeviceTally, matches_truth, seeds, set_up, Opts, Run, SetupTimes};
use cpu_hungarian::JonkerVolgenant;
use hunipu::{HunIpu, WarmEngine, F32_VERIFY_EPS};
use ipu_sim::IpuConfig;
use lsap::{CostMatrix, LsapError, LsapSolver, SolveReport};
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Instance size and cost range of `dense-n256`: the paper's Table II
/// Gaussian data, integer costs in `[1, k·n]`.
const DENSE_N: usize = 256;
const DENSE_K: u64 = 10;
/// Distinct instances per run. Modeled metrics are means over all of
/// them, so their run-to-run spread shrinks with the pool.
const DENSE_POOL: usize = 32;

/// Instance size and shape of `tiled-n4096`: permuted
/// `datasets::diag_dominant(4096, 3, TILED_CONFLICTS)`. The conflict rows
/// force real Step-4 sweeps, each of which streams the matrix again.
const TILED_N: usize = 4096;
const TILED_SHIFT: usize = 3;
const TILED_CONFLICTS: usize = 8;
const TILED_POOL: usize = 48;

/// The instances of one run and their f64 ground truth.
pub struct Pool {
    kind: PoolKind,
    truths: Vec<f64>,
}

enum PoolKind {
    Dense(Vec<CostMatrix>),
    /// A 4096² matrix is 134 MB, so the pool keeps one base matrix and
    /// a row and a column permutation per instance, and materializes an
    /// instance just before it is solved, outside the op's timing.
    Permuted {
        base: CostMatrix,
        perms: Vec<(Vec<usize>, Vec<usize>)>,
    },
}

impl Pool {
    fn len(&self) -> usize {
        self.truths.len()
    }

    /// Instance `i`; a permuted instance is written over `scratch`.
    fn instance<'a>(&'a self, i: usize, scratch: &'a mut Option<CostMatrix>) -> &'a CostMatrix {
        match &self.kind {
            PoolKind::Dense(ms) => &ms[i],
            PoolKind::Permuted { base, perms } => {
                let m = scratch.get_or_insert_with(|| base.clone());
                let (rows, cols) = &perms[i];
                permute_into(base, rows, cols, m);
                m
            }
        }
    }
}

/// Writes `base` with its rows and columns permuted into `out`, in place:
/// a fresh 4096² matrix per instance would cost more in page faults than
/// the copy itself.
fn permute_into(base: &CostMatrix, rows: &[usize], cols: &[usize], out: &mut CostMatrix) {
    for (i, &r) in rows.iter().enumerate() {
        let src = base.row(r);
        for (dst, &c) in out.row_mut(i).iter_mut().zip(cols) {
            *dst = src[c];
        }
    }
}

fn permutation(n: usize, rng: &mut rand::rngs::StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// The f64 Jonker–Volgenant optimum of `m`.
pub fn truth(jv: &JonkerVolgenant, m: &CostMatrix) -> f64 {
    jv.clone()
        .solve(m)
        .expect("JV solves every square instance")
        .objective
}

fn setup_dense(opts: &Opts, solver: &HunIpu) -> (Pool, SetupTimes) {
    let t = Instant::now();
    let ms: Vec<CostMatrix> = seeds(opts.seed, 0xd5, DENSE_POOL)
        .into_iter()
        .map(|s| datasets::gaussian_cost_matrix(DENSE_N, DENSE_K, s))
        .collect();
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let jv = JonkerVolgenant::new();
    let truths = ms.iter().map(|m| truth(&jv, m)).collect();
    let truth_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    drop(
        solver
            .warm(DENSE_N)
            .expect("the dense n=256 program compiles on Mk2"),
    );
    let compile_s = t.elapsed().as_secs_f64();
    let pool = Pool {
        kind: PoolKind::Dense(ms),
        truths,
    };
    (
        pool,
        SetupTimes {
            gen_s,
            truth_s,
            compile_s,
        },
    )
}

fn setup_tiled(opts: &Opts) -> (Pool, SetupTimes) {
    let t = Instant::now();
    let base = datasets::diag_dominant(TILED_N, TILED_SHIFT, TILED_CONFLICTS);
    let perms: Vec<(Vec<usize>, Vec<usize>)> = seeds(opts.seed, 0x71, TILED_POOL)
        .into_iter()
        .map(|s| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(s);
            let rows = permutation(TILED_N, &mut rng);
            (rows, permutation(TILED_N, &mut rng))
        })
        .collect();
    let mut m = base.clone();
    let mut gen_s = t.elapsed().as_secs_f64();
    let mut truth_s = 0.0;
    let jv = JonkerVolgenant::new();
    let mut truths = Vec::with_capacity(perms.len());
    for (rows, cols) in &perms {
        let t = Instant::now();
        permute_into(&base, rows, cols, &mut m);
        gen_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        truths.push(truth(&jv, &m));
        truth_s += t.elapsed().as_secs_f64();
    }
    let pool = Pool {
        kind: PoolKind::Permuted { base, perms },
        truths,
    };
    // The tiled program is compiled inside `HunIpu::solve_tiled`; there
    // is no separate warm-up compile to time.
    (
        pool,
        SetupTimes {
            gen_s,
            truth_s,
            compile_s: 0.0,
        },
    )
}

/// What a solve leaves behind for the device counters to be read from,
/// after the op's timing has stopped.
enum Held {
    Warm(Box<WarmEngine>),
    Engine(Box<ipu_sim::Engine>),
}

impl Held {
    fn engine(&self) -> &ipu_sim::Engine {
        match self {
            Held::Warm(w) => w.engine(),
            Held::Engine(e) => e,
        }
    }
}

fn device(opts: &Opts, tiles: Option<usize>) -> IpuConfig {
    let mut cfg = tiles.map_or_else(IpuConfig::mk2, IpuConfig::tiny);
    cfg.host_threads = opts.threads;
    cfg
}

/// Runs `dense-n256`.
pub fn dense(opts: &Opts) -> Run {
    let solver = HunIpu::with_config(device(opts, None));
    let (pool, run, _) = set_up(|| setup_dense(opts, &solver));
    closed_loop(opts, pool, run, "ipu-sim.run", |m, tr, on, op, parent| {
        let s = tr.begin(on, "hunipu.warm", op, parent);
        let warm = solver.warm(m.n());
        tr.end(s);
        let mut warm = warm?;
        let s = tr.begin(on, "ipu-sim.run", op, parent);
        let report = warm.solve(&solver, m);
        tr.end(s);
        Ok((report?, Held::Warm(Box::new(warm))))
    })
}

/// Runs `tiled-n4096`.
pub fn tiled(opts: &Opts) -> Run {
    let solver = HunIpu::with_config(device(opts, Some(64)));
    assert!(
        solver.takes_tiled_path(TILED_N),
        "LayoutMode::Auto must route n={TILED_N} to the tiled path on tiny(64)"
    );
    let (pool, run, _) = set_up(|| setup_tiled(opts));
    // `HunIpu::solve` under `LayoutMode::Auto` is `solve_tiled` here;
    // calling it directly keeps the engine for its counters.
    closed_loop(
        opts,
        pool,
        run,
        "hunipu.solve_tiled",
        |m, tr, on, op, parent| {
            let s = tr.begin(on, "hunipu.solve_tiled", op, parent);
            let solved = solver.solve_tiled(m);
            tr.end(s);
            let (report, engine) = solved?;
            Ok((report, Held::Engine(Box::new(engine))))
        },
    )
}

/// The closed loop: solve the pool's instances in order, cycling, until
/// the first pass is done and `opts.seconds` are spent. Modeled metrics
/// come from the first pass; later solves of the same instance must
/// reproduce its cycle count exactly. The host time of an instance is the
/// fastest of its solves: the passes do identical work, so the fastest
/// is the one least slowed by other load on the machine.
fn closed_loop(
    opts: &Opts,
    pool: Pool,
    mut run: Run,
    run_span: &'static str,
    mut solve: impl FnMut(
        &CostMatrix,
        &mut Tracer,
        bool,
        u64,
        SpanId,
    ) -> Result<(SolveReport, Held), LsapError>,
) -> Run {
    let k = pool.len();
    let mut solves = 0usize;
    // Per instance, the fastest solve: over all passes, and over the
    // traced and the untraced passes of a traced run.
    let mut best = vec![f64::INFINITY; k];
    let (mut best_traced, mut best_untraced) = (best.clone(), best.clone());
    let mut pass1_cycles: Vec<Option<u64>> = vec![None; k];
    let mut latencies_ms = Vec::with_capacity(k);
    let mut tally = DeviceTally::default();
    let mut traced_supersteps = 0u64;
    let mut scratch = None;
    let mut op = 0u64;
    let start = Instant::now();
    loop {
        let done = op as usize;
        if done >= k {
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed + elapsed / done as f64 > opts.seconds {
                break;
            }
        }
        let i = done % k;
        let m = pool.instance(i, &mut scratch);
        // A traced run traces every other pass; the untraced passes are
        // the baseline for the tracing overhead.
        let on = opts.trace && (done / k).is_multiple_of(2);
        run.attempted += 1;

        let t0 = Instant::now();
        let span = run.tracer.begin(on, "op", op, SpanId::NONE);
        let outcome = solve(m, &mut run.tracer, on, op, span).map(|(report, held)| {
            let s = run.tracer.begin(on, "lsap.verify", op, span);
            let verified = report.verify(m, F32_VERIFY_EPS);
            run.tracer.end(s);
            let s = run.tracer.begin(on, "check.ground_truth", op, span);
            let right = matches_truth(m, &report.assignment, report.objective, pool.truths[i]);
            run.tracer.end(s);
            (report, held, verified, right)
        });
        run.tracer.end(span);
        let wall = t0.elapsed().as_secs_f64();
        solves += 1;
        best[i] = best[i].min(wall);
        let by_trace = if on {
            &mut best_traced
        } else {
            &mut best_untraced
        };
        by_trace[i] = by_trace[i].min(wall);

        let (report, held, verified, right) = match outcome {
            Ok(x) => x,
            Err(e) => {
                run.fail(format!("op {op}: solve failed: {e}"));
                op += 1;
                continue;
            }
        };
        if !right {
            run.wrong(format!(
                "op {op}: objective {} but JV ground truth is {}",
                report.objective, pool.truths[i]
            ));
        } else if let Err(e) = verified {
            run.fail(format!("op {op}: certificate rejected: {e}"));
        }
        let engine = held.engine();
        let cycles = report.stats.modeled_cycles.unwrap_or(0);
        if done < k {
            if let Err(e) = tally.add(
                engine.stats(),
                &report.stats,
                engine.program_load_cycles(),
                engine.peak_tile_bytes(),
            ) {
                run.fail(format!("op {op}: layers do not reconcile: {e}"));
            }
            pass1_cycles[i] = Some(cycles);
            latencies_ms.push(report.stats.modeled_seconds.unwrap_or(0.0) * 1e3);
        } else if let Some(first) = pass1_cycles[i].filter(|&c| c != cycles) {
            run.fail(format!(
                "op {op}: instance {i} took {cycles} cycles, {first} on its first solve"
            ));
        }
        if on {
            traced_supersteps += engine.stats().supersteps;
        }
        op += 1;
    }

    let walls: Vec<f64> = best.into_iter().filter(|w| w.is_finite()).collect();
    let device_ms = crate::metrics::mean(&latencies_ms);
    let l = &mut run.layer;
    l.put("wall_p50_s", median(&walls), "s");
    let (wall_tail, wall_pct) = tail(&walls);
    l.put("wall_tail_s", wall_tail, "s");
    let busy: f64 = walls.iter().sum();
    l.put(
        "ops_per_s",
        if busy > 0.0 {
            walls.len() as f64 / busy
        } else {
            0.0
        },
        "1/s",
    );
    let e = &mut run.e2e;
    e.put("device_ms_per_op", device_ms, "ms");
    e.put("latency_p50_ms", median(&latencies_ms), "ms");
    let (lat_tail, lat_pct) = tail(&latencies_ms);
    e.put("latency_tail_ms", lat_tail, "ms");
    e.put(
        "max_rate_rps",
        if device_ms > 0.0 {
            1e3 / device_ms
        } else {
            0.0
        },
        "req/s",
    );
    run.note(format!(
        "{solves} solves of {k} instances; wall_tail_s is p{wall_pct:.1} of {} instances' fastest solves; \
         latency_tail_ms is p{lat_pct:.1} of {} instances",
        walls.len(),
        latencies_ms.len()
    ));

    let l = &mut run.layer;
    l.put("hunipu.compile_s", run.tracer.mean_s("hunipu.warm").0, "s");
    let (run_s, traced) = run.tracer.mean_s(run_span);
    l.put("ipu-sim.run_s", run_s, "s");
    l.put("lsap.verify_s", run.tracer.mean_s("lsap.verify").0, "s");
    let host_ns_per_superstep = if traced_supersteps == 0 {
        0.0
    } else {
        run_s * traced as f64 * 1e9 / traced_supersteps as f64
    };
    l.put("ipu-sim.host_ns_per_superstep", host_ns_per_superstep, "ns");
    tally.put_metrics(l);
    let diffs: Vec<f64> = best_traced
        .iter()
        .zip(&best_untraced)
        .filter(|(t, u)| t.is_finite() && u.is_finite())
        .map(|(t, u)| t - u)
        .collect();
    l.put("trace.overhead_s", median(&diffs), "s");
    if opts.trace {
        run.note(format!(
            "trace.overhead_s is the median over {} instances of traced minus untraced fastest solve",
            diffs.len()
        ));
    }
    run
}
