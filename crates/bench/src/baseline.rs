//! The checked-in perf baselines behind the CI regression gates, and the
//! one schema every gate declares.
//!
//! Each gate binary (`bench batch`, `bench serve`, …) records its grid
//! into a `BENCH_*.json` file at the repo root with `--write-baseline`
//! and re-runs the grid against it with `--check`. What a gate checks is
//! data, not code: each baseline type implements [`Baseline`] by
//! declaring one [`Schema`] — its grid identity, its cell key, one
//! [`Metric`] rule per gated quantity, its named [`Invariant`]s, and the
//! wall-clock keys the drift audit ignores. One comparator
//! ([`compare`]), one loader/saver ([`load`]/[`save`]) and one
//! `--check`/`--write-baseline` entry point ([`gate_main`]) serve every
//! gate (DESIGN.md §16).
//!
//! The gates are flake-free by construction: gated metrics are *modeled*
//! device costs (simulated IPU cycles, modeled GPU seconds, virtual-clock
//! latencies, counts) which are deterministic functions of the grid —
//! bit-identical across machines, thread counts, and load. Wall-clock
//! numbers are carried for context but never gated; the one exception,
//! wallbench, gates a same-process wall *ratio*.

use crate::cli::Args;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Relative regression tolerance on gated metrics (10%). Modeled costs
/// are deterministic, so any drift at all is a real change — the slack
/// only exists so deliberate small costs (an extra superstep, a new
/// counter) don't force a baseline refresh with every PR.
pub const CYCLE_TOLERANCE: f64 = 0.10;

/// Minimum wall-clock speedup the lowered execution plan must keep over
/// the tree-walking interpreter on the wallbench suite (the plan-lowering
/// tentpole's headline claim). Gated on the per-thread-count *suite
/// aggregate* (total interpreted wall / total plan wall): the aggregate
/// is dominated by the large sizes where wall time actually matters and
/// is far less noisy than any single cell.
pub const WALLBENCH_MIN_SPEEDUP: f64 = 2.0;

/// Minimum modeled-cycle reduction the chip-aware layout must deliver
/// on ≥4-chip configurations (the multi-IPU tentpole's headline claim).
pub const MULTI_IPU_MIN_IMPROVEMENT: f64 = 0.20;

/// Minimum cold/warm modeled-cycle speedup the warm-started re-solve
/// must deliver at small perturbations (`k <= n/8` rows touched) — the
/// re-solve tentpole's headline claim.
pub const RESOLVE_MIN_SPEEDUP: f64 = 2.0;

/// Maximum dispatch regret the calibrated portfolio may leave on the
/// table, per grid cell: `measured(picked) / measured(oracle-best) − 1`
/// must stay ≤ 10%. A mispick near a cost crossover is cheap (the two
/// engines measure alike there) and passes; dispatching to an engine
/// clearly slower than the best one fails the gate and means the
/// committed `PortfolioTable::calibrated` constants are stale —
/// regenerate them with `bench calibrate --emit-rust`.
pub const PORTFOLIO_MAX_REGRET: f64 = 0.10;

/// Minimum modeled compute-cycle advantage the sparse k=8 solve must
/// keep over the dense solve of the same instance (the beyond-SRAM
/// tentpole's headline sparse claim, stated at n=1024). Applies from
/// [`SCALE_SPARSE_FLOOR_MIN_N`] up: at small n the fixed per-sweep
/// overheads dominate and the k/n ratio advantage has not opened yet.
pub const SCALE_SPARSE_MIN_SPEEDUP: f64 = 5.0;

/// Smallest n at which [`SCALE_SPARSE_MIN_SPEEDUP`] is enforced.
pub const SCALE_SPARSE_FLOOR_MIN_N: usize = 1024;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Costs: cycles, seconds, bytes, error counts.
    Lower,
    /// Quality: answered counts, speedups, feasibility.
    Higher,
}

/// The one bound a [`Metric`] rule enforces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Relative to the baseline cell, at [`CYCLE_TOLERANCE`]. Lower is
    /// better: fails when run > base × (1 + tolerance). Higher is better
    /// (counts): fails when run < ⌊base × (1 − tolerance)⌋.
    Tolerance,
    /// Absolute: a floor when higher is better, a ceiling when lower is.
    Floor(f64),
    /// The run must equal the baseline.
    Exact,
}

/// One gated quantity of a cell: a column, or a ratio the gate
/// recomputes from the columns (never trusting a stored ratio).
pub struct Metric<C> {
    /// Name in violation messages: the column's JSON key, or the
    /// informational key the derived ratio is stored under.
    pub key: &'static str,
    /// Which way the metric improves.
    pub better: Better,
    /// The bound it must hold.
    pub bound: Bound,
    /// Reads the metric from a cell.
    pub value: fn(&C) -> f64,
    /// Whether the rule applies; both the baseline and the run cell must
    /// satisfy it.
    pub applies: fn(&C) -> bool,
}

/// A named structural invariant: a plain function returning the detail
/// of each violation.
pub enum Invariant<B, C> {
    /// Checked on every matched cell, given (baseline cell, run cell,
    /// whole run); violations are prefixed with the cell key.
    Cell(&'static str, fn(&C, &C, &B) -> Option<String>),
    /// Checked once on (baseline, run).
    Run(&'static str, fn(&B, &B) -> Vec<String>),
}

impl<B, C> Invariant<B, C> {
    fn name(&self) -> &'static str {
        match self {
            Self::Cell(name, _) | Self::Run(name, _) => name,
        }
    }
}

/// A gate's declaration: everything the generic comparator, the gate
/// binaries and the drift audit need to know about one baseline file.
pub struct Schema<B: 'static, C: 'static> {
    /// The `bench` binary that records the baseline.
    pub bin: &'static str,
    /// Committed baseline file at the repo root.
    pub file: &'static str,
    /// Grid identity, rendered `field=value …`: a run is comparable only
    /// when it renders the same; a mismatch is the sole violation
    /// reported.
    pub grid: fn(&B) -> String,
    /// The baseline's cells.
    pub cells: fn(&B) -> &[C],
    /// Cell key: matches run cells to baseline cells and names the cell
    /// in every violation.
    pub key: fn(&C) -> String,
    /// Baseline cells the run must measure (a run may cover a subset of
    /// the baseline's grid, e.g. one wallbench thread count).
    pub covers: fn(&B, &C) -> bool,
    /// Gated metrics, checked on every matched cell.
    pub metrics: &'static [Metric<C>],
    /// Structural invariants.
    pub invariants: &'static [Invariant<B, C>],
    /// Machine-dependent JSON keys (wall clocks and rates derived from
    /// them) that the drift audit ignores.
    pub volatile: &'static [&'static str],
}

/// A baseline file type and its gate schema.
pub trait Baseline: Serialize + DeserializeOwned + Clone + 'static {
    /// One cell of the grid.
    type Cell: 'static;
    /// The gate's declaration.
    const SCHEMA: &'static Schema<Self, Self::Cell>;
}

/// What the gate runner needs of a schema, whatever its baseline type.
pub trait GateFile: Sync {
    /// The `bench` binary that records the baseline.
    fn bin(&self) -> &'static str;
    /// Committed baseline file at the repo root.
    fn file(&self) -> &'static str;
    /// JSON keys the drift audit ignores.
    fn volatile(&self) -> &'static [&'static str];
    /// Loads the baseline at `path`, compares it with itself, and checks
    /// that saving it reproduces the file byte for byte.
    fn self_check(&self, path: &Path) -> std::io::Result<Vec<String>>;
}

impl<B: Baseline> GateFile for Schema<B, B::Cell> {
    fn bin(&self) -> &'static str {
        self.bin
    }

    fn file(&self) -> &'static str {
        self.file
    }

    fn volatile(&self) -> &'static [&'static str] {
        self.volatile
    }

    fn self_check(&self, path: &Path) -> std::io::Result<Vec<String>> {
        let base: B = load(path)?;
        let mut violations = compare(&base, &base);
        if to_json(&base)? != std::fs::read_to_string(path)? {
            violations.push(format!("{} does not re-serialize byte for byte", self.file));
        }
        Ok(violations)
    }
}

/// Reads a baseline from `path`.
pub fn load<T: DeserializeOwned>(path: &Path) -> std::io::Result<T> {
    let text = std::fs::read_to_string(path)?;
    serde_json::from_str(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Pretty-prints a baseline to `path`.
pub fn save<T: Serialize>(baseline: &T, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, to_json(baseline)?)
}

fn to_json<T: Serialize>(baseline: &T) -> std::io::Result<String> {
    let mut text = serde_json::to_string_pretty(baseline)?;
    text.push('\n');
    Ok(text)
}

/// Compares a fresh run against a committed baseline, returning every
/// violation (empty = gate passes).
pub fn compare<B: Baseline>(base: &B, run: &B) -> Vec<String> {
    evaluate(base, run).0
}

/// The comparator: `(violations, notes)`, where notes flag tolerance
/// metrics that improved beyond the tolerance (the baseline should be
/// refreshed so the gate tracks the gain).
fn evaluate<B: Baseline>(base: &B, run: &B) -> (Vec<String>, Vec<String>) {
    let s = B::SCHEMA;
    let (base_grid, run_grid) = ((s.grid)(base), (s.grid)(run));
    if base_grid != run_grid {
        let v = format!(
            "grid mismatch: baseline {base_grid}, run {run_grid} — regenerate with --write-baseline"
        );
        return (vec![v], Vec::new());
    }
    let (mut violations, mut notes) = (Vec::new(), Vec::new());
    let run_cells = (s.cells)(run);
    for b in (s.cells)(base).iter().filter(|c| (s.covers)(run, c)) {
        let cell = (s.key)(b);
        let Some(r) = run_cells.iter().find(|c| (s.key)(c) == cell) else {
            violations.push(format!("cell {cell} missing from this run"));
            continue;
        };
        for m in s
            .metrics
            .iter()
            .filter(|m| (m.applies)(b) && (m.applies)(r))
        {
            let (bv, rv) = ((m.value)(b), (m.value)(r));
            if let Some(v) = m.violation(bv, rv) {
                violations.push(format!("{cell}: {v}"));
            } else if m.bound == Bound::Tolerance
                && m.better == Better::Lower
                && rv < bv * (1.0 - CYCLE_TOLERANCE)
            {
                notes.push(format!(
                    "{cell}: {} improved {bv} -> {rv} ({:+.1}%) — refresh {} so the gate tracks it",
                    m.key,
                    (rv / bv - 1.0) * 100.0,
                    s.file
                ));
            }
        }
        for inv in s.invariants {
            if let Invariant::Cell(_, check) = inv {
                violations.extend(check(b, r, run).map(|v| format!("{cell}: {v}")));
            }
        }
    }
    for inv in s.invariants {
        if let Invariant::Run(_, check) = inv {
            violations.extend(check(base, run));
        }
    }
    (violations, notes)
}

impl<C> Metric<C> {
    /// The violation of this rule by a run value against its baseline
    /// value, if any.
    fn violation(&self, base: f64, run: f64) -> Option<String> {
        let (key, tol) = (self.key, CYCLE_TOLERANCE * 100.0);
        match (self.bound, self.better) {
            (Bound::Tolerance, Better::Lower) => {
                (run > base * (1.0 + CYCLE_TOLERANCE)).then(|| {
                    let pct = (run / base - 1.0) * 100.0;
                    format!("{key} regressed {base} -> {run} (+{pct:.1}%, tolerance {tol:.0}%)")
                })
            }
            (Bound::Tolerance, Better::Higher) => {
                let floor = (base * (1.0 - CYCLE_TOLERANCE)).floor();
                (run < floor).then(|| {
                    format!("{key} dropped {base} -> {run} (floor {floor}, tolerance {tol:.0}%)")
                })
            }
            (Bound::Floor(f), Better::Higher) => {
                (run < f).then(|| format!("{key} {run} below the {f} floor"))
            }
            (Bound::Floor(f), Better::Lower) => {
                (run > f).then(|| format!("{key} {run} above the {f} ceiling"))
            }
            (Bound::Exact, _) => (run != base).then(|| {
                format!("{key} changed {base} -> {run}; it must match the baseline exactly")
            }),
        }
    }
}

/// The `--check` / `--write-baseline` modes every gate binary shares.
///
/// The baseline path is `--baseline PATH`, else the schema's committed
/// file. `--check` compares `run` against that file as it was *before*
/// this invocation — so `--write-baseline --check` checks the fresh run
/// against the committed baseline and then refreshes it. Exits nonzero
/// on any violation.
pub fn gate_main<B: Baseline>(args: &Args, run: &B) {
    let path = Path::new(args.baseline.as_deref().unwrap_or(B::SCHEMA.file));
    if let Err(violations) = check_and_write(args.check, args.write_baseline, path, run) {
        for v in &violations {
            eprintln!("FAIL: {v}");
        }
        std::process::exit(1);
    }
}

/// [`gate_main`] without the exit: checks first, then writes.
fn check_and_write<B: Baseline>(
    check: bool,
    write: bool,
    path: &Path,
    run: &B,
) -> Result<(), Vec<String>> {
    let s = B::SCHEMA;
    let mut violations = Vec::new();
    if check {
        match load::<B>(path) {
            Ok(base) => {
                let (found, notes) = evaluate(&base, run);
                notes.iter().for_each(|n| println!("  note: {n}"));
                violations = found;
            }
            Err(e) => violations.push(format!(
                "cannot read baseline {}: {e} — regenerate it with \
                 `cargo run --release -p bench --bin {} -- --write-baseline`",
                path.display(),
                s.bin
            )),
        }
    }
    if write {
        match save(run, path) {
            Ok(()) => println!("wrote baseline {}", path.display()),
            Err(e) => violations.push(format!("cannot write baseline {}: {e}", path.display())),
        }
    }
    if !violations.is_empty() {
        return Err(violations);
    }
    if check {
        let held: Vec<&str> = s.invariants.iter().map(Invariant::name).collect();
        println!(
            "{} gate PASSED against {}: {} cells, tolerance {:.0}%, invariants held: {}",
            s.bin,
            path.display(),
            (s.cells)(run).len(),
            CYCLE_TOLERANCE * 100.0,
            held.join(", ")
        );
    }
    Ok(())
}

fn always<C>(_: &C) -> bool {
    true
}

fn all_cells<B, C>(_: &B, _: &C) -> bool {
    true
}

/// Volatile keys of a modeled-cost baseline whose cells carry only the
/// host wall spent producing them.
const WALL_SECONDS: &[&str] = &["wall_seconds"];

/// One engine's row in the batch baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineEntry {
    /// Batch engine name (e.g. "hunipu-batch", "fastha-batch").
    pub engine: String,
    /// What `single` / `batched` measure (e.g. "cycles/instance",
    /// "modeled_us/instance"). Informational; the gate compares numbers.
    pub metric: String,
    /// Per-instance cost of the sequential baseline (full per-solve
    /// overhead paid every iteration).
    pub single: f64,
    /// Amortized per-instance cost of the batch engine.
    pub batched: f64,
    /// Host wall seconds for the whole batch run. Informational only —
    /// wall time depends on the machine and is never gated.
    #[serde(default)]
    pub wall_seconds: f64,
    /// Host wall throughput, instances/second. Informational only.
    #[serde(default)]
    pub instances_per_sec: f64,
}

/// `BENCH_batch.json`: the amortized per-instance cost of every batch
/// engine on one grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchBaseline {
    /// Instance size n of the grid.
    pub n: usize,
    /// Instances per batch.
    pub batch: usize,
    /// Dataset seed.
    pub seed: u64,
    /// Per-engine measurements.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline for BatchBaseline {
    type Cell = BaselineEntry;
    const SCHEMA: &'static Schema<Self, BaselineEntry> = &Schema {
        bin: "batch",
        file: "BENCH_batch.json",
        grid: |b| format!("n={} batch={} seed={}", b.n, b.batch, b.seed),
        cells: |b| &b.entries,
        key: |e| e.engine.clone(),
        covers: all_cells,
        metrics: &[Metric {
            key: "batched",
            better: Better::Lower,
            bound: Bound::Tolerance,
            value: |e| e.batched,
            applies: always,
        }],
        // The amortization win the batch engines exist for; only
        // meaningful with at least two instances to amortize over.
        invariants: &[Invariant::Cell("batched beats single", |_, e, run| {
            (run.batch >= 2 && e.batched >= e.single).then(|| {
                format!(
                    "amortized {} ({:.2}) no longer beats the sequential baseline ({:.2}) \
                     at batch={}",
                    e.metric, e.batched, e.single, run.batch
                )
            })
        })],
        volatile: &["wall_seconds", "instances_per_sec"],
    };
}

/// One (n, host threads) cell of the wallbench interp-vs-plan comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WallbenchEntry {
    /// Instance size.
    pub n: usize,
    /// Host worker threads both modes ran with.
    pub threads: usize,
    /// Best-of-reps wall seconds of the tree-walking interpreter.
    pub interp_wall: f64,
    /// Best-of-reps wall seconds of the lowered execution plan.
    pub plan_wall: f64,
    /// `interp_wall / plan_wall`. Informational per cell (the gate uses
    /// the per-thread-count aggregate).
    pub speedup: f64,
    /// Whether the two modes produced bit-identical results (objective
    /// bits, assignment, cycle statistics).
    pub identical: bool,
}

/// `BENCH_wallbench.json`: the plan executor's wall win over the
/// interpreter. Unlike the modeled-cost baselines, the gated quantity is
/// a wall *ratio*: both modes run on the same machine in the same
/// process, so the ratio is machine-portable where absolute seconds are
/// not. The recorded walls are context only; the gate recomputes the
/// ratio from the fresh run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WallbenchBaseline {
    /// Instance sizes of the suite.
    pub sizes: Vec<usize>,
    /// Host thread counts of the suite.
    pub threads: Vec<usize>,
    /// Dataset value range k.
    pub k: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Per-cell measurements.
    pub entries: Vec<WallbenchEntry>,
}

impl Baseline for WallbenchBaseline {
    type Cell = WallbenchEntry;
    const SCHEMA: &'static Schema<Self, WallbenchEntry> = &Schema {
        bin: "wallbench",
        file: "BENCH_wallbench.json",
        grid: |b| format!("sizes={:?} k={} seed={}", b.sizes, b.k, b.seed),
        cells: |b| &b.entries,
        key: |e| format!("n={} threads={}", e.n, e.threads),
        // CI gates `SIM_THREADS=1` and `8` in separate invocations: a run
        // covers a subset of the thread counts, every size of each.
        covers: |run, e| run.threads.contains(&e.threads),
        metrics: &[],
        invariants: &[
            Invariant::Cell("bit-identical", |_, e, _| {
                (!e.identical)
                    .then(|| "plan diverged from the interpreter — bit-identity broken".to_string())
            }),
            Invariant::Run("thread counts in the grid", |base, run| {
                if run.threads.is_empty() {
                    return vec!["run covered no thread counts".to_string()];
                }
                run.threads
                    .iter()
                    .filter(|t| !base.threads.contains(t))
                    .map(|t| {
                        format!(
                            "thread count {t} not in the baseline grid {:?} \
                             — regenerate with --write-baseline",
                            base.threads
                        )
                    })
                    .collect()
            }),
            Invariant::Run("suite speedup floor", |base, run| {
                let mut violations = Vec::new();
                for &t in run.threads.iter().filter(|t| base.threads.contains(t)) {
                    let cells: Vec<&WallbenchEntry> = base
                        .sizes
                        .iter()
                        .filter_map(|&n| run.entries.iter().find(|e| e.n == n && e.threads == t))
                        .collect();
                    let interp: f64 = cells.iter().map(|e| e.interp_wall).sum();
                    let plan: f64 = cells.iter().map(|e| e.plan_wall).sum();
                    if cells.len() == base.sizes.len() && plan > 0.0 {
                        let speedup = interp / plan;
                        if speedup < WALLBENCH_MIN_SPEEDUP {
                            violations.push(format!(
                                "threads={t}: suite speedup {speedup:.2}x below the \
                                 {WALLBENCH_MIN_SPEEDUP:.1}x floor \
                                 (interp {interp:.3}s / plan {plan:.3}s)"
                            ));
                        }
                    }
                }
                violations
            }),
        ],
        // The whole point of wallbench is wall clocks; the gate re-derives
        // the machine-portable speedup ratio fresh, so every recorded wall
        // (and the ratio computed from it) is context, not contract.
        volatile: &["interp_wall", "plan_wall", "speedup"],
    };
}

/// One (device, topology, n) cell of the multi-IPU baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiIpuEntry {
    /// Device family ("tiny" or "mk2").
    pub device: String,
    /// Chips in the sweep cell.
    pub chips: usize,
    /// Tiles per chip.
    pub tiles_per_chip: usize,
    /// Instance size.
    pub n: usize,
    /// Modeled solve cycles under the chip-oblivious flat layout.
    pub flat_cycles: f64,
    /// Modeled solve cycles under the chip-aware layout.
    pub chip_aware_cycles: f64,
    /// Fractional improvement `1 − chip_aware/flat`. Informational
    /// (recomputed by the gate from the cycle columns).
    pub improvement: f64,
    /// Host wall seconds for the cell. Informational only.
    #[serde(default)]
    pub wall_seconds: f64,
}

/// `BENCH_multi_ipu.json`: flat vs chip-aware layout cycles per device
/// topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiIpuBaseline {
    /// Dataset seed.
    pub seed: u64,
    /// Per-cell measurements.
    pub entries: Vec<MultiIpuEntry>,
}

impl Baseline for MultiIpuBaseline {
    type Cell = MultiIpuEntry;
    const SCHEMA: &'static Schema<Self, MultiIpuEntry> = &Schema {
        bin: "multi_ipu",
        file: "BENCH_multi_ipu.json",
        grid: |b| format!("seed={}", b.seed),
        cells: |b| &b.entries,
        key: |e| format!("{} {}x{} n={}", e.device, e.chips, e.tiles_per_chip, e.n),
        covers: all_cells,
        metrics: &[
            Metric {
                key: "chip_aware_cycles",
                better: Better::Lower,
                bound: Bound::Tolerance,
                value: |e| e.chip_aware_cycles,
                applies: always,
            },
            Metric {
                key: "improvement",
                better: Better::Higher,
                bound: Bound::Floor(MULTI_IPU_MIN_IMPROVEMENT),
                value: |e| 1.0 - e.chip_aware_cycles / e.flat_cycles,
                applies: |e| e.chips >= 4,
            },
        ],
        invariants: &[
            // `Auto` on one chip must compile the seed program.
            Invariant::Cell("single chip is flat", |_, e, _| {
                (e.chips == 1 && e.chip_aware_cycles != e.flat_cycles).then(|| {
                    format!(
                        "single-chip Auto ({:.0}) != Flat ({:.0}) — bit-identity broken",
                        e.chip_aware_cycles, e.flat_cycles
                    )
                })
            }),
            Invariant::Cell("chip-aware beats flat", |_, e, _| {
                (e.chips > 1 && e.chip_aware_cycles >= e.flat_cycles).then(|| {
                    format!(
                        "chip-aware ({:.0}) no longer beats flat ({:.0})",
                        e.chip_aware_cycles, e.flat_cycles
                    )
                })
            }),
        ],
        volatile: WALL_SECONDS,
    };
}

/// `BENCH_serve.json`: the serving-layer load test (closed-loop
/// calibration, then open loop at 2x the sustainable rate under a seeded
/// fault storm). The whole scenario is one cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeBaseline {
    /// Instance size n of the workload.
    pub n: usize,
    /// Requests offered in the open-loop phase.
    pub requests: usize,
    /// Total requests offered including the harness's brownout probe —
    /// the accounting denominator.
    pub offered: u64,
    /// Dataset / fault seed.
    pub seed: u64,
    /// Admission bound the scenario ran with.
    pub queue_capacity: usize,
    /// Closed-loop sustainable service time, cycles/request.
    pub service_cycles_per_request: f64,
    /// Open-loop inter-arrival grid (half the service time — 2x load).
    /// Informational; recomputed from the calibration on every run.
    pub inter_arrival_cycles: u64,
    /// Certificate-verified exact answers.
    pub exact: u64,
    /// Degraded answers (greedy with a sound gap bound).
    pub degraded: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Explicit deadline rejections.
    pub deadline_exceeded: u64,
    /// Exact answers rerouted to the CPU rung.
    pub rerouted: u64,
    /// Circuit-breaker trips during the storm.
    pub breaker_trips: u64,
    /// Answers failing external re-verification.
    pub incorrect: u64,
    /// Deepest the queue got.
    pub queue_high_water: usize,
    /// Median answered latency, virtual cycles.
    pub p50_latency_cycles: u64,
    /// p99 answered latency, virtual cycles.
    pub p99_latency_cycles: u64,
    /// Host wall seconds for the whole scenario. Informational only.
    #[serde(default)]
    pub wall_seconds: f64,
}

impl Baseline for ServeBaseline {
    type Cell = ServeBaseline;
    const SCHEMA: &'static Schema<Self, ServeBaseline> = &Schema {
        bin: "serve",
        file: "BENCH_serve.json",
        grid: |b| {
            let (n, requests, seed, capacity) = (b.n, b.requests, b.seed, b.queue_capacity);
            format!("n={n} requests={requests} seed={seed} capacity={capacity}")
        },
        cells: std::slice::from_ref,
        key: |s| format!("n={} requests={}", s.n, s.requests),
        covers: all_cells,
        metrics: &[
            Metric {
                key: "service_cycles_per_request",
                better: Better::Lower,
                bound: Bound::Tolerance,
                value: |s| s.service_cycles_per_request,
                applies: always,
            },
            Metric {
                key: "p50_latency_cycles",
                better: Better::Lower,
                bound: Bound::Tolerance,
                value: |s| s.p50_latency_cycles as f64,
                applies: always,
            },
            Metric {
                key: "p99_latency_cycles",
                better: Better::Lower,
                bound: Bound::Tolerance,
                value: |s| s.p99_latency_cycles as f64,
                applies: always,
            },
            // The quality floor: ⌊exact × 0.9⌋ answered exactly.
            Metric {
                key: "exact",
                better: Better::Higher,
                bound: Bound::Tolerance,
                value: |s| s.exact as f64,
                applies: always,
            },
            // No silent wrong answers: every response certificate-verified
            // or explicitly degraded with a sound bound.
            Metric {
                key: "incorrect",
                better: Better::Lower,
                bound: Bound::Floor(0.0),
                value: |s| s.incorrect as f64,
                applies: always,
            },
        ],
        invariants: &[
            Invariant::Cell("queue within capacity", |_, s, _| {
                (s.queue_high_water > s.queue_capacity).then(|| {
                    format!(
                        "queue high water {} exceeds the admission capacity {}",
                        s.queue_high_water, s.queue_capacity
                    )
                })
            }),
            Invariant::Cell("every request accounted once", |_, s, _| {
                let accounted = s.exact + s.degraded + s.deadline_exceeded + s.shed;
                (accounted != s.offered).then(|| {
                    format!(
                        "request accounting broken: {} offered but {accounted} accounted \
                         (exact {} + degraded {} + deadline {} + shed {})",
                        s.offered, s.exact, s.degraded, s.deadline_exceeded, s.shed
                    )
                })
            }),
            // If 2x load stops shedding, the scenario is no longer an
            // overload test and the numbers are incomparable.
            Invariant::Cell("overload still sheds", |base, s, _| {
                (base.shed > 0 && s.shed == 0).then(|| {
                    "2x offered load no longer sheds — the scenario stopped exercising overload"
                        .to_string()
                })
            }),
            Invariant::Cell("brownout still degrades", |base, s, _| {
                (base.degraded > 0 && s.degraded == 0).then(|| {
                    "the brownout probe no longer degrades — the greedy rung went unexercised"
                        .to_string()
                })
            }),
        ],
        volatile: WALL_SECONDS,
    };
}

/// One `(n, k)` cell of the re-solve baseline: a stream of `ticks`
/// perturbations of a base instance, each re-solved warm (dual repair +
/// the Step-1-free seeded program) and cold for comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResolveEntry {
    /// Instance size.
    pub n: usize,
    /// Rows perturbed per tick.
    pub k: usize,
    /// Re-solve ticks measured (after the initial cold solve).
    pub ticks: usize,
    /// Mean modeled cycles of the cold solves over the same stream.
    pub cold_cycles: f64,
    /// Mean modeled cycles of the warm re-solves.
    pub warm_cycles: f64,
    /// `cold_cycles / warm_cycles`. Informational (recomputed by the
    /// gate from the cycle columns).
    pub speedup: f64,
    /// Ticks answered by the seeded program with a verifying
    /// certificate.
    pub seeded: u64,
    /// Ticks whose seeded answer failed its certificate and fell back
    /// to a cold solve (counted, never silent).
    pub fallbacks: u64,
    /// Warm answers whose objective disagreed with the cold CPU ground
    /// truth.
    pub mismatches: u64,
    /// Host wall seconds for the cell. Informational only.
    #[serde(default)]
    pub wall_seconds: f64,
}

/// `BENCH_resolve.json`: the warm-start re-solve sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResolveBaseline {
    /// Dataset / perturbation seed.
    pub seed: u64,
    /// Per-cell measurements.
    pub entries: Vec<ResolveEntry>,
}

impl Baseline for ResolveBaseline {
    type Cell = ResolveEntry;
    const SCHEMA: &'static Schema<Self, ResolveEntry> = &Schema {
        bin: "resolve",
        file: "BENCH_resolve.json",
        grid: |b| format!("seed={}", b.seed),
        cells: |b| &b.entries,
        key: |e| format!("n={} k={} ticks={}", e.n, e.k, e.ticks),
        covers: all_cells,
        metrics: &[
            // Correctness is never traded for speed.
            Metric {
                key: "mismatches",
                better: Better::Lower,
                bound: Bound::Floor(0.0),
                value: |e| e.mismatches as f64,
                applies: always,
            },
            Metric {
                key: "warm_cycles",
                better: Better::Lower,
                bound: Bound::Tolerance,
                value: |e| e.warm_cycles,
                applies: always,
            },
            Metric {
                key: "speedup",
                better: Better::Higher,
                bound: Bound::Floor(RESOLVE_MIN_SPEEDUP),
                value: |e| e.cold_cycles / e.warm_cycles,
                applies: |e| e.k * 8 <= e.n,
            },
        ],
        // A silent always-fallback would pass the correctness gates while
        // measuring nothing.
        invariants: &[Invariant::Cell("seeded program exercised", |base, e, _| {
            (base.seeded > 0 && e.seeded == 0).then(|| {
                format!(
                    "seeded program no longer taken (baseline seeded {} ticks, run 0 \
                     — all fallbacks)",
                    base.seeded
                )
            })
        })],
        volatile: WALL_SECONDS,
    };
}

/// One engine's measured cost in a portfolio grid cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasuredCost {
    /// Engine name.
    pub engine: String,
    /// Measured amortized modeled seconds per instance.
    pub seconds_per_instance: f64,
}

/// One `(n, k, batch, chips)` cell of the portfolio regret baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PortfolioEntry {
    /// Instance size.
    pub n: usize,
    /// Value-range factor of the instance family.
    pub k: u64,
    /// Instances amortized per engine checkout.
    pub batch: usize,
    /// Chips the IPU engine spans.
    pub chips: usize,
    /// The engine `PortfolioTable::calibrated` picked for this shape.
    pub picked: String,
    /// The engine with the cheapest *measured* cost (the oracle).
    pub oracle: String,
    /// Measured amortized seconds/instance of the picked engine.
    pub picked_seconds: f64,
    /// Measured amortized seconds/instance of the oracle-best engine.
    pub oracle_seconds: f64,
    /// `picked_seconds / oracle_seconds − 1`. Informational — the gate
    /// recomputes it from the measured columns.
    pub regret: f64,
    /// Every candidate's measured cost in this cell, for context.
    pub measured: Vec<MeasuredCost>,
    /// Host wall seconds for the cell. Informational only.
    #[serde(default)]
    pub wall_seconds: f64,
}

/// `BENCH_portfolio.json`: the calibrated portfolio's dispatch regret per
/// shape. Every dispatched answer is certificate-verified by the harness
/// before its cost is trusted.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PortfolioBaseline {
    /// Dataset seed.
    pub seed: u64,
    /// Per-cell measurements.
    pub entries: Vec<PortfolioEntry>,
}

impl Baseline for PortfolioBaseline {
    type Cell = PortfolioEntry;
    const SCHEMA: &'static Schema<Self, PortfolioEntry> = &Schema {
        bin: "portfolio",
        file: "BENCH_portfolio.json",
        grid: |b| format!("seed={}", b.seed),
        cells: |b| &b.entries,
        key: |e| format!("n={} k={} batch={} chips={}", e.n, e.k, e.batch, e.chips),
        covers: all_cells,
        // The engines themselves got slower: a perf regression even if
        // dispatch still picks them correctly.
        metrics: &[Metric {
            key: "oracle_seconds",
            better: Better::Lower,
            bound: Bound::Tolerance,
            value: |e| e.oracle_seconds,
            applies: always,
        }],
        invariants: &[
            // A harness that mislabels the oracle would hide regret.
            Invariant::Cell("oracle is the measured minimum", |_, e, _| {
                let measured_min = e
                    .measured
                    .iter()
                    .map(|m| m.seconds_per_instance)
                    .fold(f64::INFINITY, f64::min);
                (e.oracle_seconds > measured_min * (1.0 + 1e-9)).then(|| {
                    format!(
                        "oracle column {:.3e} is not the measured minimum {measured_min:.3e}",
                        e.oracle_seconds
                    )
                })
            }),
            Invariant::Cell("dispatch regret", |_, e, _| {
                (e.picked_seconds > e.oracle_seconds * (1.0 + PORTFOLIO_MAX_REGRET)).then(|| {
                    format!(
                        "dispatch regret {:.1}% exceeds the {:.0}% gate \
                         (picked {} at {:.3e}s vs oracle {} at {:.3e}s) \
                         — recalibrate with `bench calibrate --emit-rust`",
                        (e.picked_seconds / e.oracle_seconds - 1.0) * 100.0,
                        PORTFOLIO_MAX_REGRET * 100.0,
                        e.picked,
                        e.picked_seconds,
                        e.oracle,
                        e.oracle_seconds
                    )
                })
            }),
        ],
        volatile: WALL_SECONDS,
    };
}

/// One (engine, n) cell of the beyond-SRAM scaling baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleEntry {
    /// Representation: "dense", "sparse_k8", or "tiled".
    pub engine: String,
    /// Instance size.
    pub n: usize,
    /// Whether the representation compiles under the per-tile SRAM
    /// budget at this n.
    pub feasible: bool,
    /// Modeled compute cycles of the verified solve. Zero for infeasible
    /// cells.
    pub compute_cycles: f64,
    /// Modeled total cycles (compute + exchange + sync + host IO).
    /// Informational context for the compute column.
    pub total_cycles: f64,
    /// Bytes streamed through the host PCIe link. Informational — the
    /// tiled rows are the only nonzero ones.
    pub host_bytes: f64,
    /// Peak SRAM bytes resident on any one tile.
    pub resident_bytes_per_tile: f64,
    /// Host wall seconds for the cell. Informational only.
    #[serde(default)]
    pub wall_seconds: f64,
}

/// `BENCH_scale.json`: dense, sparse and tiled solves across the SRAM
/// ceiling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleBaseline {
    /// Dataset seed.
    pub seed: u64,
    /// Per-cell measurements.
    pub entries: Vec<ScaleEntry>,
}

impl Baseline for ScaleBaseline {
    type Cell = ScaleEntry;
    const SCHEMA: &'static Schema<Self, ScaleEntry> = &Schema {
        bin: "scale",
        file: "BENCH_scale.json",
        grid: |b| format!("seed={}", b.seed),
        cells: |b| &b.entries,
        key: |e| format!("{} n={}", e.engine, e.n),
        covers: all_cells,
        metrics: &[
            // In either direction: a dense n=4096 cell that suddenly
            // "fits" means the SRAM accounting broke, not that the
            // ceiling moved.
            Metric {
                key: "feasible",
                better: Better::Higher,
                bound: Bound::Exact,
                value: |e| f64::from(u8::from(e.feasible)),
                applies: always,
            },
            Metric {
                key: "compute_cycles",
                better: Better::Lower,
                bound: Bound::Tolerance,
                value: |e| e.compute_cycles,
                applies: |e| e.feasible,
            },
            // An out-of-core layout that silently grows resident again
            // would pass a cycles-only gate.
            Metric {
                key: "resident_bytes_per_tile",
                better: Better::Lower,
                bound: Bound::Tolerance,
                value: |e| e.resident_bytes_per_tile,
                applies: |e| e.feasible,
            },
        ],
        invariants: &[Invariant::Run("sparse advantage floor", |_, run| {
            let mut violations = Vec::new();
            for sparse in run
                .entries
                .iter()
                .filter(|e| e.engine == "sparse_k8" && e.n >= SCALE_SPARSE_FLOOR_MIN_N)
            {
                let Some(dense) = run
                    .entries
                    .iter()
                    .find(|e| e.engine == "dense" && e.n == sparse.n && e.feasible)
                else {
                    continue;
                };
                let speedup = dense.compute_cycles / sparse.compute_cycles.max(1.0);
                if speedup < SCALE_SPARSE_MIN_SPEEDUP {
                    violations.push(format!(
                        "n={}: sparse k=8 compute advantage {speedup:.2}x fell below the \
                         {SCALE_SPARSE_MIN_SPEEDUP:.0}x floor (dense {:.0} vs sparse {:.0} cycles)",
                        sparse.n, dense.compute_cycles, sparse.compute_cycles
                    ));
                }
            }
            violations
        })],
        volatile: WALL_SECONDS,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(batched: f64) -> BatchBaseline {
        BatchBaseline {
            n: 64,
            batch: 16,
            seed: 1,
            entries: vec![BaselineEntry {
                engine: "hunipu-batch".into(),
                metric: "cycles/instance".into(),
                single: 1000.0,
                batched,
                wall_seconds: 1.0,
                instances_per_sec: 16.0,
            }],
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("bench-baseline-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrips_through_disk() {
        let path = scratch("BENCH_batch.json");
        save(&batch(600.0), &path).unwrap();
        let back: BatchBaseline = load(&path).unwrap();
        assert_eq!(back.entries[0].batched, 600.0);
        assert!(compare(&batch(600.0), &back).is_empty());
    }

    #[test]
    fn write_and_check_checks_the_committed_file_before_overwriting_it() {
        let path = scratch("BENCH_batch_write_check.json");
        save(&batch(600.0), &path).unwrap();
        let regressed = batch(700.0);

        let v = check_and_write(true, true, &path, &regressed).unwrap_err();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("regressed 600 -> 700"), "{v:?}");
        // The refresh still happened; the next check is against it.
        let written: BatchBaseline = load(&path).unwrap();
        assert_eq!(written.entries[0].batched, 700.0);
        assert_eq!(check_and_write(true, false, &path, &regressed), Ok(()));
    }

    #[test]
    fn check_without_a_committed_file_fails_and_names_the_fix() {
        let path = scratch("BENCH_batch_absent.json");
        let _ = std::fs::remove_file(&path);
        let v = check_and_write(true, false, &path, &batch(600.0)).unwrap_err();
        assert!(v[0].contains("--bin batch -- --write-baseline"), "{v:?}");
        assert!(!path.exists());
    }

    #[test]
    fn improvements_beyond_the_tolerance_are_noted_not_failed() {
        let (violations, notes) = evaluate(&batch(600.0), &batch(500.0));
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(notes.len(), 1);
        assert!(notes[0].contains("refresh BENCH_batch.json"), "{notes:?}");
    }
}
