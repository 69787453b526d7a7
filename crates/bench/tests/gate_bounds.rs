//! Bound-rejection table for every registered baseline gate.
//!
//! For each gate in [`bench::GATES`] this feeds the comparator one
//! doctored run per bound it enforces and requires exactly one
//! violation that names the cell and the bound. Next to each rejected
//! run sits a run on the boundary, which must pass: a tolerance metric
//! at exactly base × (1 + [`CYCLE_TOLERANCE`]), a ratio floor at exactly
//! its value, a count at exactly its limit. Together the two pin every
//! bound to its value and its side of the comparison.

use bench::baseline::{
    compare, Baseline, BaselineEntry, BatchBaseline, MeasuredCost, MultiIpuBaseline, MultiIpuEntry,
    PortfolioBaseline, PortfolioEntry, ResolveBaseline, ResolveEntry, ScaleBaseline, ScaleEntry,
    ServeBaseline, WallbenchBaseline, WallbenchEntry, CYCLE_TOLERANCE, MULTI_IPU_MIN_IMPROVEMENT,
    PORTFOLIO_MAX_REGRET, RESOLVE_MIN_SPEEDUP, SCALE_SPARSE_FLOOR_MIN_N, SCALE_SPARSE_MIN_SPEEDUP,
    WALLBENCH_MIN_SPEEDUP,
};

/// What the comparator must say about one run.
enum Expect {
    /// No violation.
    Accept,
    /// Exactly one violation, containing every listed fragment.
    Reject(Vec<String>),
}

struct Case<B> {
    what: &'static str,
    base: B,
    run: B,
    expect: Expect,
}

fn accept<B>(what: &'static str, base: &B, run: B) -> Case<B>
where
    B: Clone,
{
    Case {
        what,
        base: base.clone(),
        run,
        expect: Expect::Accept,
    }
}

fn reject<B>(what: &'static str, base: &B, run: B, names: &[&str]) -> Case<B>
where
    B: Clone,
{
    Case {
        what,
        base: base.clone(),
        run,
        expect: Expect::Reject(names.iter().map(|s| s.to_string()).collect()),
    }
}

/// Returns a copy of `base` changed by `f`.
fn doctor<B: Clone>(base: &B, f: impl FnOnce(&mut B)) -> B {
    let mut run = base.clone();
    f(&mut run);
    run
}

/// The next representable value above a positive finite `x`.
fn ulp_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// The next representable value below a positive finite `x`.
fn ulp_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// `base` at exactly the tolerance limit the gates use.
fn at_limit(base: f64) -> f64 {
    base * (1.0 + CYCLE_TOLERANCE)
}

fn run_table<B: Baseline>(gate: &str, cases: Vec<Case<B>>) {
    for c in cases {
        let v = compare(&c.base, &c.run);
        match c.expect {
            Expect::Accept => {
                assert!(v.is_empty(), "{gate}: {}: must pass, got {v:?}", c.what)
            }
            Expect::Reject(names) => {
                assert_eq!(
                    v.len(),
                    1,
                    "{gate}: {}: want one violation, got {v:?}",
                    c.what
                );
                for name in &names {
                    assert!(
                        v[0].contains(name.as_str()),
                        "{gate}: {}: violation must name {name:?}: {v:?}",
                        c.what
                    );
                }
            }
        }
    }
}

#[test]
fn table_covers_every_registered_gate() {
    let covered = [
        "batch",
        "multi_ipu",
        "wallbench-t1",
        "wallbench-t8",
        "serve",
        "resolve",
        "portfolio",
        "scale",
    ];
    let mut registered: Vec<&str> = bench::GATES.iter().map(|g| g.name).collect();
    registered.sort_unstable();
    let mut covered = covered.to_vec();
    covered.sort_unstable();
    assert_eq!(registered, covered);
}

#[test]
fn bounds_keep_their_values() {
    assert_eq!(CYCLE_TOLERANCE, 0.10);
    assert_eq!(WALLBENCH_MIN_SPEEDUP, 2.0);
    assert_eq!(MULTI_IPU_MIN_IMPROVEMENT, 0.20);
    assert_eq!(RESOLVE_MIN_SPEEDUP, 2.0);
    assert_eq!(PORTFOLIO_MAX_REGRET, 0.10);
    assert_eq!(SCALE_SPARSE_MIN_SPEEDUP, 5.0);
    assert_eq!(SCALE_SPARSE_FLOOR_MIN_N, 1024);
}

fn batch_entry(engine: &str, single: f64, batched: f64) -> BaselineEntry {
    BaselineEntry {
        engine: engine.into(),
        metric: "cycles/instance".into(),
        single,
        batched,
        wall_seconds: 1.0,
        instances_per_sec: 16.0,
    }
}

#[test]
fn batch_gate_rejects_each_bound() {
    let base = BatchBaseline {
        n: 64,
        batch: 16,
        seed: 1,
        entries: vec![
            batch_entry("hunipu-batch", 1000.0, 600.0),
            batch_entry("fastha-batch", 80.0, 20.0),
        ],
    };
    let single = BatchBaseline {
        batch: 1,
        ..base.clone()
    };
    run_table(
        "batch",
        vec![
            accept("identical run", &base, base.clone()),
            accept(
                "wall clocks are context, not gated",
                &base,
                doctor(&base, |r| {
                    r.entries[0].wall_seconds = 99.0;
                    r.entries[0].instances_per_sec = 0.1;
                }),
            ),
            accept(
                "batched at exactly base x 1.10",
                &base,
                doctor(&base, |r| r.entries[0].batched = at_limit(600.0)),
            ),
            reject(
                "batched one ulp above base x 1.10",
                &base,
                doctor(&base, |r| r.entries[0].batched = ulp_up(at_limit(600.0))),
                &["hunipu-batch", "tolerance 10%"],
            ),
            reject(
                "grid mismatch",
                &base,
                doctor(&base, |r| r.seed = 2),
                &["mismatch"],
            ),
            reject(
                "engine missing from the run",
                &base,
                doctor(&base, |r| {
                    r.entries.pop();
                }),
                &["fastha-batch", "missing"],
            ),
            accept(
                "batched one ulp below single at batch >= 2",
                &base,
                doctor(&base, |r| {
                    r.entries[0].single = 600.0;
                    r.entries[0].batched = ulp_down(600.0);
                }),
            ),
            reject(
                "batched == single at batch >= 2, within tolerance",
                &base,
                doctor(&base, |r| r.entries[0].single = 600.0),
                &["hunipu-batch", "no longer beats"],
            ),
            accept(
                "batched == single at batch 1: no amortization to win",
                &single,
                doctor(&single, |r| r.entries[0].single = 600.0),
            ),
        ],
    );
}

fn multi_cell(chips: usize, flat: f64, chip_aware: f64) -> MultiIpuEntry {
    MultiIpuEntry {
        device: "tiny".into(),
        chips,
        tiles_per_chip: 8,
        n: 48,
        flat_cycles: flat,
        chip_aware_cycles: chip_aware,
        improvement: 1.0 - chip_aware / flat,
        wall_seconds: 0.1,
    }
}

#[test]
fn multi_ipu_gate_rejects_each_bound() {
    // The 2-chip cell improves only 10%: the 20% floor is a >=4-chip
    // bound, so the identical run must pass.
    let base = MultiIpuBaseline {
        seed: 1,
        entries: vec![
            multi_cell(1, 1000.0, 1000.0),
            multi_cell(2, 1000.0, 900.0),
            multi_cell(4, 1024.0, 768.0),
        ],
    };
    run_table(
        "multi_ipu",
        vec![
            accept("identical run, 2-chip cell below 20%", &base, base.clone()),
            accept(
                "chip-aware at exactly base x 1.10",
                &base,
                doctor(&base, |r| r.entries[1].chip_aware_cycles = at_limit(900.0)),
            ),
            reject(
                "chip-aware one ulp above base x 1.10",
                &base,
                doctor(&base, |r| {
                    r.entries[1].chip_aware_cycles = ulp_up(at_limit(900.0))
                }),
                &["tiny 2x8 n=48", "tolerance 10%"],
            ),
            accept(
                "single chip: Auto == Flat, both moved",
                &base,
                doctor(&base, |r| {
                    r.entries[0].flat_cycles = 1050.0;
                    r.entries[0].chip_aware_cycles = 1050.0;
                }),
            ),
            reject(
                "single chip: Auto one ulp off Flat",
                &base,
                doctor(&base, |r| r.entries[0].chip_aware_cycles = ulp_up(1000.0)),
                &["tiny 1x8 n=48", "bit-identity"],
            ),
            reject(
                "multi-chip: chip-aware no longer beats flat",
                &base,
                doctor(&base, |r| r.entries[1].flat_cycles = 900.0),
                &["tiny 2x8 n=48", "no longer beats"],
            ),
            accept(
                "4 chips: the closest run to the 20% floor that clears it",
                // 0.2 has no exact binary form: 1 - 0.8 lands one ulp
                // under it, so the tightest passing ratio is one ulp
                // below 0.8 (power-of-two flat keeps the division exact).
                &base,
                doctor(&base, |r| {
                    r.entries[2].chip_aware_cycles = ulp_down(0.8) * 1024.0
                }),
            ),
            reject(
                "4 chips: improvement 1 - 0.8 under the 20% floor",
                &base,
                doctor(&base, |r| r.entries[2].chip_aware_cycles = 0.8 * 1024.0),
                &["tiny 4x8 n=48", "floor"],
            ),
            reject(
                "cell missing from the run",
                &base,
                doctor(&base, |r| {
                    r.entries.remove(1);
                }),
                &["2x8", "missing"],
            ),
            reject(
                "seed mismatch",
                &base,
                doctor(&base, |r| r.seed = 2),
                &["mismatch"],
            ),
        ],
    );
}

fn wall_entry(n: usize, threads: usize, interp: f64, plan: f64) -> WallbenchEntry {
    WallbenchEntry {
        n,
        threads,
        interp_wall: interp,
        plan_wall: plan,
        speedup: interp / plan,
        identical: true,
    }
}

/// The run a `--threads T` gate produces: the baseline restricted to T.
fn wall_subset(base: &WallbenchBaseline, t: usize) -> WallbenchBaseline {
    doctor(base, |r| {
        r.threads = vec![t];
        r.entries.retain(|e| e.threads == t);
    })
}

/// Index of the `(n, t)` cell in a [`wall_subset`] run.
fn wall_cell(run: &WallbenchBaseline, n: usize) -> usize {
    run.entries.iter().position(|e| e.n == n).unwrap()
}

fn wallbench_gate(t: usize) {
    let gate = format!("wallbench-t{t}");
    let base = WallbenchBaseline {
        sizes: vec![128, 512],
        threads: vec![1, 8],
        k: 10,
        seed: 42,
        entries: vec![
            wall_entry(128, 1, 0.05, 0.02),
            wall_entry(512, 1, 2.5, 1.0),
            wall_entry(128, 8, 0.05, 0.02),
            wall_entry(512, 8, 2.3, 0.9),
        ],
    };
    let run = wall_subset(&base, t);
    let small = wall_cell(&run, 128);
    let large = wall_cell(&run, 512);
    let threads = format!("threads={t}");
    let large_cell = format!("n=512 threads={t}");
    let cases = vec![
        accept("every thread count", &base, base.clone()),
        accept("this gate's thread count only", &base, run.clone()),
        accept(
            "a weak small cell is carried by the suite aggregate",
            &base,
            doctor(&run, |r| r.entries[small] = wall_entry(128, t, 0.05, 0.04)),
        ),
        accept(
            "suite speedup exactly 2.0x",
            &base,
            doctor(&run, |r| {
                r.entries[small] = wall_entry(128, t, 0.5, 0.25);
                r.entries[large] = wall_entry(512, t, 1.5, 0.75);
            }),
        ),
        reject(
            "suite speedup below 2.0x",
            &base,
            doctor(&run, |r| {
                r.entries[small] = wall_entry(128, t, 0.5, 0.25);
                r.entries[large] = wall_entry(512, t, ulp_down(1.5), 0.75);
            }),
            &[threads.as_str(), "floor"],
        ),
        reject(
            "one cell not bit-identical",
            &base,
            doctor(&run, |r| r.entries[large].identical = false),
            &[large_cell.as_str()],
        ),
        reject(
            "cell missing from the run",
            &base,
            doctor(&run, |r| {
                r.entries.remove(large);
            }),
            &[large_cell.as_str(), "missing"],
        ),
        reject(
            "grid mismatch",
            &base,
            doctor(&run, |r| r.seed = 7),
            &["mismatch"],
        ),
        reject(
            "thread count outside the baseline grid",
            &base,
            WallbenchBaseline {
                threads: vec![4],
                entries: vec![wall_entry(128, 4, 0.05, 0.02), wall_entry(512, 4, 2.5, 1.0)],
                ..base.clone()
            },
            &["not in the baseline grid"],
        ),
        reject(
            "run covers no thread count",
            &base,
            WallbenchBaseline {
                threads: vec![],
                entries: vec![],
                ..base.clone()
            },
            &["no thread counts"],
        ),
    ];
    run_table(&gate, cases);
}

#[test]
fn wallbench_t1_gate_rejects_each_bound() {
    wallbench_gate(1);
}

#[test]
fn wallbench_t8_gate_rejects_each_bound() {
    wallbench_gate(8);
}

fn serve_base() -> ServeBaseline {
    ServeBaseline {
        n: 24,
        requests: 48,
        offered: 49,
        seed: 1,
        queue_capacity: 8,
        service_cycles_per_request: 100_000.0,
        inter_arrival_cycles: 50_000,
        exact: 21,
        degraded: 6,
        shed: 18,
        deadline_exceeded: 4,
        rerouted: 10,
        breaker_trips: 1,
        incorrect: 0,
        queue_high_water: 8,
        p50_latency_cycles: 200_000,
        p99_latency_cycles: 900_000,
        wall_seconds: 2.0,
    }
}

#[test]
fn serve_gate_rejects_each_bound() {
    let base = serve_base();
    let calm = doctor(&base, |b| {
        b.exact += b.shed;
        b.shed = 0;
    });
    run_table(
        "serve",
        vec![
            accept("identical run, queue at capacity", &base, base.clone()),
            accept(
                "informational fields move",
                &base,
                doctor(&base, |r| {
                    r.wall_seconds = 9.0;
                    r.inter_arrival_cycles = 1;
                    r.rerouted = 0;
                    r.breaker_trips = 7;
                }),
            ),
            reject(
                "grid mismatch: seed",
                &base,
                doctor(&base, |r| r.seed = 2),
                &["mismatch"],
            ),
            reject(
                "grid mismatch: queue capacity",
                &base,
                doctor(&base, |r| {
                    r.queue_capacity = 9;
                }),
                &["mismatch"],
            ),
            reject(
                "one incorrect answer",
                &base,
                doctor(&base, |r| r.incorrect = 1),
                &["incorrect"],
            ),
            reject(
                "queue above capacity",
                &base,
                doctor(&base, |r| r.queue_high_water = 9),
                &["high water"],
            ),
            reject(
                "one request unaccounted",
                &base,
                doctor(&base, |r| r.shed = 17),
                &["accounting"],
            ),
            reject(
                "2x load no longer sheds",
                &base,
                doctor(&base, |r| {
                    r.exact += r.shed;
                    r.shed = 0;
                }),
                &["sheds"],
            ),
            reject(
                "brownout probe no longer degrades",
                &base,
                doctor(&base, |r| {
                    r.exact += r.degraded;
                    r.degraded = 0;
                }),
                &["degrade"],
            ),
            accept(
                "shedding is required only where the baseline shed",
                &calm,
                calm.clone(),
            ),
            accept(
                "service cycles at exactly base x 1.10",
                &base,
                doctor(&base, |r| {
                    r.service_cycles_per_request = at_limit(100_000.0)
                }),
            ),
            reject(
                "service cycles one ulp above base x 1.10",
                &base,
                doctor(&base, |r| {
                    r.service_cycles_per_request = ulp_up(at_limit(100_000.0))
                }),
                &["service", "tolerance 10%"],
            ),
            accept(
                "p50 at the limit",
                &base,
                doctor(&base, |r| r.p50_latency_cycles = 220_000),
            ),
            reject(
                "p50 one cycle above the limit",
                &base,
                doctor(&base, |r| r.p50_latency_cycles = 220_001),
                &["p50", "tolerance 10%"],
            ),
            accept(
                "p99 at the limit",
                &base,
                doctor(&base, |r| r.p99_latency_cycles = 990_000),
            ),
            reject(
                "p99 one cycle above the limit",
                &base,
                doctor(&base, |r| r.p99_latency_cycles = 990_001),
                &["p99", "tolerance 10%"],
            ),
            accept(
                "exact answers at floor(21 x 0.9) = 18",
                &base,
                doctor(&base, |r| {
                    r.exact = 18;
                    r.deadline_exceeded = 7;
                }),
            ),
            reject(
                "exact answers one below the floor",
                &base,
                doctor(&base, |r| {
                    r.exact = 17;
                    r.deadline_exceeded = 8;
                }),
                &["exact", "tolerance 10%"],
            ),
        ],
    );
}

fn resolve_cell(n: usize, k: usize, cold: f64, warm: f64, seeded: u64) -> ResolveEntry {
    ResolveEntry {
        n,
        k,
        ticks: 4,
        cold_cycles: cold,
        warm_cycles: warm,
        speedup: cold / warm,
        seeded,
        fallbacks: 4 - seeded,
        mismatches: 0,
        wall_seconds: 0.5,
    }
}

#[test]
fn resolve_gate_rejects_each_bound() {
    // k = n: a 1.05x speedup, legal because the floor is k <= n/8 only.
    let base = ResolveBaseline {
        seed: 1,
        entries: vec![
            resolve_cell(128, 1, 8000.0, 2000.0, 4),
            resolve_cell(128, 16, 8000.0, 2000.0, 4),
            resolve_cell(128, 128, 8000.0, 7600.0, 4),
        ],
    };
    let never_seeded = doctor(&base, |b| {
        b.entries[2].seeded = 0;
        b.entries[2].fallbacks = 4;
    });
    run_table(
        "resolve",
        vec![
            accept("identical run, k = n below 2x", &base, base.clone()),
            reject(
                "one warm answer disagrees with ground truth",
                &base,
                doctor(&base, |r| r.entries[0].mismatches = 1),
                &["n=128 k=1"],
            ),
            accept(
                "warm cycles at exactly base x 1.10",
                &base,
                doctor(&base, |r| r.entries[1].warm_cycles = at_limit(2000.0)),
            ),
            reject(
                "warm cycles one ulp above base x 1.10",
                &base,
                doctor(&base, |r| {
                    r.entries[1].warm_cycles = ulp_up(at_limit(2000.0))
                }),
                &["n=128 k=16", "tolerance 10%"],
            ),
            accept(
                "k = n/8 at exactly the 2.0x floor",
                &base,
                doctor(&base, |r| r.entries[1].cold_cycles = 4000.0),
            ),
            reject(
                "k = n/8 one ulp under the 2.0x floor, stale stored speedup",
                &base,
                doctor(&base, |r| {
                    r.entries[1].cold_cycles = ulp_down(4000.0);
                    r.entries[1].speedup = 4.0;
                }),
                &["n=128 k=16", "floor"],
            ),
            reject(
                "seeded program no longer taken",
                &base,
                doctor(&base, |r| {
                    r.entries[0].seeded = 0;
                    r.entries[0].fallbacks = 4;
                }),
                &["n=128 k=1", "no longer taken"],
            ),
            accept(
                "seeding is required only where the baseline seeded",
                &never_seeded,
                never_seeded.clone(),
            ),
            reject(
                "cell missing from the run",
                &base,
                doctor(&base, |r| {
                    r.entries.remove(2);
                }),
                &["n=128 k=128", "missing"],
            ),
            reject(
                "seed mismatch",
                &base,
                doctor(&base, |r| r.seed = 2),
                &["mismatch"],
            ),
        ],
    );
}

fn portfolio_cell(n: usize, picked_s: f64, oracle_s: f64) -> PortfolioEntry {
    PortfolioEntry {
        n,
        k: 10,
        batch: 1,
        chips: 1,
        picked: "jv".into(),
        oracle: "jv".into(),
        picked_seconds: picked_s,
        oracle_seconds: oracle_s,
        regret: picked_s / oracle_s - 1.0,
        measured: vec![
            MeasuredCost {
                engine: "jv".into(),
                seconds_per_instance: oracle_s,
            },
            MeasuredCost {
                engine: "hunipu".into(),
                seconds_per_instance: oracle_s * 20.0,
            },
        ],
        wall_seconds: 0.1,
    }
}

#[test]
fn portfolio_gate_rejects_each_bound() {
    let base = PortfolioBaseline {
        seed: 1,
        entries: vec![
            portfolio_cell(64, 1.0e-4, 1.0e-4),
            portfolio_cell(128, 2.1e-4, 2.0e-4),
        ],
    };
    let max_pick = 1.0e-4 * (1.0 + PORTFOLIO_MAX_REGRET);
    run_table(
        "portfolio",
        vec![
            accept("identical run, 5% regret", &base, base.clone()),
            accept(
                "regret at exactly 10%",
                &base,
                doctor(&base, |r| {
                    r.entries[0] = portfolio_cell(64, max_pick, 1.0e-4)
                }),
            ),
            reject(
                "regret one ulp above 10%, stale stored regret",
                &base,
                doctor(&base, |r| {
                    r.entries[0] = portfolio_cell(64, ulp_up(max_pick), 1.0e-4);
                    r.entries[0].regret = 0.0;
                }),
                &["n=64 k=10 batch=1 chips=1", "regret", "recalibrate"],
            ),
            accept(
                "oracle within 1e-9 of the measured minimum",
                &base,
                doctor(&base, |r| {
                    r.entries[0].measured[0].seconds_per_instance = 1.0e-4 * (1.0 - 1e-10)
                }),
            ),
            reject(
                "oracle column is not the measured minimum",
                &base,
                doctor(&base, |r| {
                    r.entries[0].measured[0].seconds_per_instance = 0.5e-4
                }),
                &["n=64 k=10 batch=1 chips=1", "not the measured minimum"],
            ),
            accept(
                "oracle cost at exactly base x 1.10",
                &base,
                doctor(&base, |r| {
                    let at = at_limit(1.0e-4);
                    r.entries[0] = portfolio_cell(64, at, at);
                }),
            ),
            reject(
                "oracle cost one ulp above base x 1.10",
                &base,
                doctor(&base, |r| {
                    let above = ulp_up(at_limit(1.0e-4));
                    r.entries[0] = portfolio_cell(64, above, above);
                }),
                &["n=64 k=10 batch=1 chips=1", "tolerance 10%"],
            ),
            reject(
                "cell missing from the run",
                &base,
                doctor(&base, |r| {
                    r.entries.remove(1);
                }),
                &["n=128 k=10 batch=1 chips=1", "missing"],
            ),
            reject(
                "seed mismatch",
                &base,
                doctor(&base, |r| r.seed = 2),
                &["mismatch"],
            ),
        ],
    );
}

fn scale_cell(engine: &str, n: usize, feasible: bool, compute: f64, resident: f64) -> ScaleEntry {
    ScaleEntry {
        engine: engine.into(),
        n,
        feasible,
        compute_cycles: compute,
        total_cycles: compute * 3.0,
        host_bytes: 0.0,
        resident_bytes_per_tile: resident,
        wall_seconds: 0.2,
    }
}

#[test]
fn scale_gate_rejects_each_bound() {
    // n=512 has only a 2x sparse advantage: the 5x floor starts at 1024.
    let base = ScaleBaseline {
        seed: 1,
        entries: vec![
            scale_cell("dense", 512, true, 20_000.0, 4_000.0),
            scale_cell("sparse_k8", 512, true, 10_000.0, 1_000.0),
            scale_cell("dense", 1024, true, 100_000.0, 8_000.0),
            scale_cell("sparse_k8", 1024, true, 10_000.0, 2_000.0),
            scale_cell("tiled", 1024, true, 120_000.0, 3_000.0),
            scale_cell("dense", 4096, false, 0.0, 0.0),
            scale_cell("tiled", 4096, true, 900_000.0, 3_000.0),
        ],
    };
    run_table(
        "scale",
        vec![
            accept("identical run, 2x sparse at n=512", &base, base.clone()),
            reject(
                "infeasible dense n=4096 starts fitting",
                &base,
                doctor(&base, |r| {
                    r.entries[5] = scale_cell("dense", 4096, true, 500_000.0, 30_000.0)
                }),
                &["dense n=4096"],
            ),
            reject(
                "feasible tiled n=4096 stops fitting",
                &base,
                doctor(&base, |r| {
                    r.entries[6] = scale_cell("tiled", 4096, false, 0.0, 0.0)
                }),
                &["tiled n=4096"],
            ),
            accept(
                "infeasible cells are not cost-gated",
                &base,
                doctor(&base, |r| r.entries[5].compute_cycles = 123.0),
            ),
            accept(
                "compute cycles at exactly base x 1.10",
                &base,
                doctor(&base, |r| r.entries[4].compute_cycles = at_limit(120_000.0)),
            ),
            reject(
                "compute cycles one ulp above base x 1.10",
                &base,
                doctor(&base, |r| {
                    r.entries[4].compute_cycles = ulp_up(at_limit(120_000.0))
                }),
                &["tiled n=1024", "tolerance 10%"],
            ),
            accept(
                "resident bytes at exactly base x 1.10",
                &base,
                doctor(&base, |r| {
                    r.entries[4].resident_bytes_per_tile = at_limit(3_000.0)
                }),
            ),
            reject(
                "resident bytes one ulp above base x 1.10",
                &base,
                doctor(&base, |r| {
                    r.entries[4].resident_bytes_per_tile = ulp_up(at_limit(3_000.0))
                }),
                &["tiled n=1024", "tolerance 10%"],
            ),
            accept(
                "sparse advantage exactly 5x at n=1024",
                &base,
                doctor(&base, |r| r.entries[2].compute_cycles = 50_000.0),
            ),
            reject(
                "sparse advantage under 5x at n=1024",
                &base,
                doctor(&base, |r| r.entries[2].compute_cycles = ulp_down(50_000.0)),
                &["n=1024", "floor"],
            ),
            reject(
                "cell missing from the run",
                &base,
                doctor(&base, |r| {
                    r.entries.remove(4);
                }),
                &["tiled n=1024", "missing"],
            ),
            reject(
                "seed mismatch",
                &base,
                doctor(&base, |r| r.seed = 2),
                &["mismatch"],
            ),
        ],
    );
}
