//! The [`HunIpu`] solver: builds the static graph for an instance size,
//! loads the cost matrix, runs the device program, and extracts the
//! verified result.

use crate::build::{Builder, Storage};
use crate::layout::Layout;
use ipu_sim::{FaultPlan, IpuConfig, ProfileConfig};
use lsap::sparse::SparseCost;
use lsap::{
    Assignment, CostMatrix, DualCertificate, LsapError, LsapSolver, SolveReport, SolverStats,
};
use std::cell::Cell;
use std::time::Instant;

/// Relative tolerance for verifying HunIPU results: the device computes
/// in f32 (as the real IPU implementation does), so certificates carry
/// single-precision round-off. Instances with integer costs below 2^24
/// verify exactly.
pub const F32_VERIFY_EPS: f64 = 1e-5;

/// How the solver lays work out across the device's chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutMode {
    /// Chip-aware on multi-IPU configs, flat on single-chip (the default).
    #[default]
    Auto,
    /// Force the chip-oblivious round-robin layout everywhere. On
    /// multi-IPU configs this is the seed behavior: column segments and
    /// collector traffic ignore chip boundaries, so most exchange phases
    /// pay IPU-Link bandwidth. Kept for differential tests and as the
    /// baseline the multi-IPU bench compares against.
    Flat,
    /// Force the chip-aware layout: rows block-partitioned per chip,
    /// column segments round-robined within their owning chip, and
    /// reductions/broadcasts restructured as hierarchical exchanges that
    /// cross each IPU-Link once per phase. Requires `config.ipus > 1`
    /// (single-chip chip-aware degenerates to flat by construction).
    ChipAware,
    /// Force the out-of-core tiled layout: the cost matrix stays
    /// host-resident and streams through PCIe block by block, while
    /// duals, matching state, and one active block live in SRAM. Breaks
    /// the dense SRAM ceiling (per-tile memory `O(n·block_cols/tiles)`
    /// instead of `O(n²/tiles)`) at the price of re-streaming the matrix
    /// every search sweep. Requires integer costs below 2^24 (the
    /// streamed slack is recomputed in f32 on the fly). Single-chip
    /// structure; [`LayoutMode::Auto`] upgrades to this automatically
    /// when the dense slack cannot fit the per-tile budget.
    Tiled,
}

/// The paper's IPU-optimized Hungarian algorithm, executed on the
/// [`ipu_sim`] machine model.
///
/// Construction is cheap; the static graph is built per `solve` call for
/// the instance's size (the IPU compiles one program per tensor shape —
/// §III-A). Reuse across same-size instances is available through
/// [`HunIpu::solve_report_with_engine`]-style helpers in the bench crate.
#[derive(Debug, Clone)]
pub struct HunIpu {
    config: IpuConfig,
    col_seg: usize,
    ablation: crate::ablation::AblationConfig,
    fault_plan: Option<FaultPlan>,
    /// Number of solves already launched with faults armed; decorrelates
    /// the fault stream across retries (see [`HunIpu::with_fault_plan`]).
    fault_epoch: Cell<u64>,
    profile: Option<ProfileConfig>,
    layout_mode: LayoutMode,
    tiled_block_cols: usize,
    tiled_zcap: usize,
}

/// Default streamed-block width for [`LayoutMode::Tiled`] (columns per
/// PCIe block; the resident work buffer is `n × TILED_BLOCK_COLS` f32
/// spread over the row owners).
pub const TILED_BLOCK_COLS: usize = 512;

/// Default zero-list capacity per row for [`LayoutMode::Tiled`] — the
/// resident lists Step 2 and the Step 4 search scan. A row with more
/// zeros keeps its first `TILED_ZCAP`; when all of those are covered the
/// search streams the matrix to look past them, so truncation costs
/// streams, never correctness.
pub const TILED_ZCAP: usize = 8;

impl Default for HunIpu {
    fn default() -> Self {
        Self::new()
    }
}

impl HunIpu {
    /// A solver targeting the paper's Mk2 device.
    pub fn new() -> Self {
        Self {
            config: IpuConfig::mk2(),
            col_seg: crate::COL_SEG_DEFAULT,
            ablation: Default::default(),
            fault_plan: None,
            fault_epoch: Cell::new(0),
            profile: None,
            layout_mode: LayoutMode::Auto,
            tiled_block_cols: TILED_BLOCK_COLS,
            tiled_zcap: TILED_ZCAP,
        }
    }

    /// A solver targeting a custom device (smaller configs are useful in
    /// tests; ablations sweep parameters).
    pub fn with_config(config: IpuConfig) -> Self {
        Self {
            config,
            ..Self::new()
        }
    }

    /// Overrides the column-segment size of §IV-E (default 32) — used by
    /// the segment-size ablation.
    pub fn with_col_seg(mut self, col_seg: usize) -> Self {
        assert!(col_seg >= 1);
        self.col_seg = col_seg;
        self
    }

    /// Overrides the ablation toggles (compression, dynamic-slice
    /// strategy, prime schedule); the default is the paper's design with
    /// the fused Step 4 prime.
    pub fn with_ablation(mut self, ablation: crate::ablation::AblationConfig) -> Self {
        self.ablation = ablation;
        self
    }

    /// Arms a [`FaultPlan`] on every engine this solver builds, simulating
    /// a faulty device.
    ///
    /// The plan's seed is the seed of the *first* solve; each subsequent
    /// solve on the same `HunIpu` derives a fresh seed from it, so a retry
    /// (e.g. driven by [`lsap::ResilientSolver`]) sees a different fault
    /// pattern rather than deterministically replaying the corruption that
    /// just killed it — matching real soft-error behavior while keeping
    /// whole-experiment reproducibility.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self.fault_epoch.set(0);
        self
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Arms or disarms the fault plan in place — the serving layer uses
    /// this to start and stop fault storms mid-run without rebuilding the
    /// solver or its pooled engines (the plan is applied per launch, so
    /// already-compiled warm engines pick the change up on their next
    /// solve). Resets the fault epoch: re-arming the same plan replays
    /// the same fault stream.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
        self.fault_epoch.set(0);
    }

    /// Enables the per-tile execution profiler on every engine this
    /// solver builds. The timeline is recovered from the engine returned
    /// by [`HunIpu::solve_with_engine`] (via `profile_report` /
    /// `chrome_trace`); [`lsap::SolverStats::profile_events`] counts the
    /// captured events either way.
    pub fn with_profiling(mut self, config: ProfileConfig) -> Self {
        self.profile = Some(config);
        self
    }

    /// The armed profiler configuration, if any.
    pub fn profile_config(&self) -> Option<&ProfileConfig> {
        self.profile.as_ref()
    }

    /// Overrides the [`LayoutMode`] (default [`LayoutMode::Auto`]) — used
    /// by differential tests and the multi-IPU bench to pin the
    /// chip-oblivious baseline.
    pub fn with_layout_mode(mut self, mode: LayoutMode) -> Self {
        self.layout_mode = mode;
        self
    }

    /// The layout mode this solver compiles with.
    pub fn layout_mode(&self) -> LayoutMode {
        self.layout_mode
    }

    /// Whether [`HunIpu::compile_for`] will build the chip-aware
    /// hierarchical program for this solver's config and layout mode.
    pub fn hierarchical(&self) -> bool {
        match self.layout_mode {
            LayoutMode::Auto => self.config.ipus > 1,
            LayoutMode::Flat => false,
            LayoutMode::ChipAware => true,
            LayoutMode::Tiled => false,
        }
    }

    /// Overrides the tiled streaming parameters (block width and
    /// zero-list capacity; defaults [`TILED_BLOCK_COLS`], [`TILED_ZCAP`]).
    pub fn with_tiled_params(mut self, block_cols: usize, zcap: usize) -> Self {
        assert!(block_cols >= 1 && zcap >= 1);
        self.tiled_block_cols = block_cols;
        self.tiled_zcap = zcap;
        self
    }

    /// Whether the dense in-SRAM program plausibly fits the per-tile
    /// memory budget for instance size `n` — the [`LayoutMode::Auto`]
    /// upgrade heuristic. The authoritative gate stays
    /// `Graph::compile`'s per-tile accounting; this estimate counts the
    /// two `O(n²/tiles)` tensors (f32 slack + i32 compress) plus the
    /// replicated n-length mirrors.
    pub fn dense_fits(&self, n: usize) -> bool {
        let tiles = self.config.tiles.min(n.max(1));
        let rows_per_tile = n.div_ceil(tiles);
        let bytes = rows_per_tile * n * 8 + 6 * n * 4;
        bytes <= self.config.tile_memory_bytes
    }

    /// Whether a square instance of size `n` goes through the tiled
    /// out-of-core path: forced by [`LayoutMode::Tiled`], or chosen by
    /// [`LayoutMode::Auto`] when the dense program cannot fit SRAM
    /// (compile would reject it anyway).
    pub fn takes_tiled_path(&self, n: usize) -> bool {
        match self.layout_mode {
            LayoutMode::Tiled => true,
            LayoutMode::Auto => !self.dense_fits(n),
            LayoutMode::Flat | LayoutMode::ChipAware => false,
        }
    }

    /// The device configuration this solver targets.
    pub fn config(&self) -> &IpuConfig {
        &self.config
    }

    /// Builds and runs the device program, returning the report plus the
    /// engine (for cycle-level inspection in benches/ablations).
    pub fn solve_with_engine(
        &self,
        matrix: &CostMatrix,
    ) -> Result<(SolveReport, ipu_sim::Engine), LsapError> {
        let n = self.validate_size(matrix)?;
        let start = Instant::now();
        let (mut engine, t) = self.compile_for(n)?;
        let report = self.run_instance(&mut engine, &t, matrix, start)?;
        Ok((report, engine))
    }

    /// Rejects shapes the device program cannot represent, returning `n`.
    pub(crate) fn validate_size(&self, matrix: &CostMatrix) -> Result<usize, LsapError> {
        if !matrix.is_square() {
            return Err(LsapError::NotSquare {
                rows: matrix.rows(),
                cols: matrix.cols(),
            });
        }
        let n = matrix.n();
        if n >= (1 << 24) {
            return Err(LsapError::Backend {
                detail: format!("instance size {n} exceeds the 2^24 arg-max encoding limit"),
            });
        }
        Ok(n)
    }

    /// Builds and compiles the static solve program for instance size `n`
    /// (the expensive, shape-dependent step — C4). The returned engine is
    /// pristine: batch serving snapshots it once and streams instances
    /// through it via [`HunIpu::run_instance`].
    pub(crate) fn compile_for(
        &self,
        n: usize,
    ) -> Result<(ipu_sim::Engine, crate::build::Ts), LsapError> {
        self.compile_with(n, false)
    }

    /// Builds and compiles the warm-start re-solve program for instance
    /// size `n`: the same graph as [`HunIpu::compile_for`] driven by
    /// [`Builder::assemble_seeded`] (no Step 1 — the host uploads the
    /// reduced slack and repaired duals). A separate program in a
    /// separate engine so the cold path's cycle accounting is untouched.
    pub(crate) fn compile_for_seeded(
        &self,
        n: usize,
    ) -> Result<(ipu_sim::Engine, crate::build::Ts), LsapError> {
        self.compile_with(n, true)
    }

    fn compile_with(
        &self,
        n: usize,
        seeded: bool,
    ) -> Result<(ipu_sim::Engine, crate::build::Ts), LsapError> {
        let backend = |e: ipu_sim::GraphError| LsapError::Backend {
            detail: e.to_string(),
        };
        let layout = if self.hierarchical() {
            Layout::chip_aware(
                n,
                self.config.threads_per_tile,
                self.col_seg,
                self.config.ipus,
                self.config.tiles_per_ipu,
            )
        } else {
            Layout::with_col_seg(
                n,
                self.config.tiles,
                self.config.threads_per_tile,
                self.col_seg,
            )
        };
        let mut builder =
            Builder::with_layout(self.config.clone(), layout, self.ablation).map_err(backend)?;
        let program = if seeded {
            builder.assemble_seeded().map_err(backend)?
        } else {
            builder.assemble().map_err(backend)?
        };
        let Builder { g, t, .. } = builder;
        let mut engine = g.compile(program).map_err(backend)?;
        if let Some(cfg) = &self.profile {
            engine.enable_profiling(cfg.clone());
        }
        Ok((engine, t))
    }

    /// The fault plan for the next engine run, if faults are armed:
    /// attempt `k` runs under `seed ^ k·φ64` (the first uses the plan's
    /// own seed unchanged), decorrelating retries from the corruption
    /// that killed the previous attempt. Every launch — single solve,
    /// batch instance, or batch retry — draws from the same epoch
    /// counter, which is what makes a batch solve reproduce a sequence
    /// of single solves bit-for-bit.
    pub(crate) fn next_fault_plan(&self) -> Option<ipu_sim::FaultPlan> {
        let plan = self.fault_plan.as_ref()?;
        let epoch = self.fault_epoch.get();
        self.fault_epoch.set(epoch.wrapping_add(1));
        let mut derived = plan.clone();
        derived.seed ^= epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Some(derived)
    }

    /// Loads one instance into a compiled engine, runs the device
    /// program, and extracts the verified-shape report. The engine must
    /// be pristine (fresh from [`HunIpu::compile_for`] or restored from a
    /// pristine snapshot); cycle statistics read back as exactly this
    /// instance's run.
    pub(crate) fn run_instance(
        &self,
        engine: &mut ipu_sim::Engine,
        t: &crate::build::Ts,
        matrix: &CostMatrix,
        start: Instant,
    ) -> Result<SolveReport, LsapError> {
        let n = matrix.n();
        let backend = |e: ipu_sim::GraphError| LsapError::Backend {
            detail: e.to_string(),
        };
        // Arm (or disarm) faults per launch: a warm engine reused from a
        // pool may still carry the plan from a previous run, so a solver
        // with no plan must actively clear it.
        match self.next_fault_plan() {
            Some(plan) => engine.set_fault_plan(plan),
            None => engine.clear_fault_plan(),
        }

        // Load the instance (cast to the device's f32, as the real
        // implementation does) and the -1-initialized matching state.
        let slack_f32: Vec<f32> = matrix.as_slice().iter().map(|&x| x as f32).collect();
        engine.write_f32(t.slack, &slack_f32).map_err(backend)?;
        let neg1 = vec![-1i32; n];
        engine.write_i32(t.row_star, &neg1).map_err(backend)?;
        engine.write_i32(t.col_star, &neg1).map_err(backend)?;
        engine.write_i32(t.row_prime, &neg1).map_err(backend)?;

        engine.run().map_err(backend)?;
        self.extract_report(engine, t, matrix, start, false)
    }

    /// Loads a warm-start re-solve into a compiled *seeded* engine (from
    /// [`HunIpu::compile_for_seeded`]) and runs it. Instead of the raw
    /// cost matrix, the host uploads the repaired seed: the reduced slack
    /// (non-negative, exact `0.0` at each row argmin) and the feasible
    /// dual potentials `u, v`, exactly the state Step 1 would have
    /// produced had the duals been derivable by row/column subtractions.
    /// The matching state starts at −1 as in a cold solve; Step 2's
    /// greedy starring rebuilds the matching from the (near-complete)
    /// zero structure, and the search loop repairs the remainder.
    pub(crate) fn run_instance_seeded(
        &self,
        engine: &mut ipu_sim::Engine,
        t: &crate::build::Ts,
        matrix: &CostMatrix,
        seed: &lsap::RepairedSeedF32,
        start: Instant,
    ) -> Result<SolveReport, LsapError> {
        let n = matrix.n();
        let backend = |e: ipu_sim::GraphError| LsapError::Backend {
            detail: e.to_string(),
        };
        match self.next_fault_plan() {
            Some(plan) => engine.set_fault_plan(plan),
            None => engine.clear_fault_plan(),
        }

        engine.write_f32(t.slack, &seed.slack).map_err(backend)?;
        engine.write_f32(t.u, &seed.u).map_err(backend)?;
        engine.write_f32(t.v, &seed.v).map_err(backend)?;
        let neg1 = vec![-1i32; n];
        engine.write_i32(t.row_star, &neg1).map_err(backend)?;
        engine.write_i32(t.col_star, &neg1).map_err(backend)?;
        engine.write_i32(t.row_prime, &neg1).map_err(backend)?;

        engine.run().map_err(backend)?;
        self.extract_report(engine, t, matrix, start, true)
    }

    /// Reads the finished device state back into a [`SolveReport`] —
    /// shared by the cold and seeded launch paths.
    fn extract_report(
        &self,
        engine: &mut ipu_sim::Engine,
        t: &crate::build::Ts,
        matrix: &CostMatrix,
        start: Instant,
        seeded: bool,
    ) -> Result<SolveReport, LsapError> {
        let n = matrix.n();
        let row_star = engine.read_i32(t.row_star);
        let row_to_col = row_star
            .iter()
            .map(|&j| (j >= 0).then_some(j as usize))
            .collect();
        let assignment = Assignment::from_row_to_col(row_to_col);
        let objective = assignment.cost(matrix)?;
        let u: Vec<f64> = engine.read_f32(t.u).iter().map(|&x| x as f64).collect();
        let v: Vec<f64> = engine.read_f32(t.v).iter().map(|&x| x as f64).collect();
        // Each augmentation grows the matching by one row, so a sane run
        // records at most n; each dual update visits at least one new
        // column between augmentations, bounding the total by n per
        // augmentation. Anything outside these bounds (negative included —
        // a naive `as u64` cast would wrap a corrupted -1 to 2^64-1) means
        // the counter itself was hit by a fault.
        let augmentations = read_counter(engine, t.ctr_aug, "ctr_aug", n as u64)?;
        let dual_updates = read_counter(engine, t.ctr_dual, "ctr_dual", (n as u64).pow(2))?;

        let stats = SolverStats {
            modeled_seconds: Some(engine.modeled_seconds()),
            modeled_cycles: Some(engine.stats().total_cycles()),
            wall_seconds: start.elapsed().as_secs_f64(),
            augmentations,
            dual_updates,
            device_steps: engine.stats().supersteps,
            profile_events: engine
                .profile()
                .map_or(0, |p| p.events.len() as u64 + p.dropped),
            seeded,
            ..Default::default()
        };
        Ok(SolveReport {
            assignment,
            objective,
            certificate: DualCertificate::new(u, v),
            stats,
        })
    }

    /// Solves a k-candidate sparse instance on the device: only the `k`
    /// candidate costs and column ids per row are resident (per-tile
    /// memory `O(n·k/tiles)`), and the Step 1/4/6 fragments operate on
    /// candidate positions with an indirect column map. When the
    /// candidate graph admits no perfect matching the device latches an
    /// infeasibility flag (non-finite δ ⇒ Hall violation) and the call
    /// returns [`LsapError::SparseInfeasible`] — the signal
    /// [`HunIpu::solve_pruned`] uses to escalate `k`.
    ///
    /// The certificate is a valid dual for the *sparse* instance; against
    /// the dense instance it may overshoot on pruned entries, which is
    /// exactly what [`lsap::violated_entries`] screens for.
    pub fn solve_sparse(&self, sc: &SparseCost) -> Result<SolveReport, LsapError> {
        self.solve_sparse_with_engine(sc).map(|(report, _)| report)
    }

    /// [`HunIpu::solve_sparse`], also returning the engine for
    /// cycle-level inspection.
    pub fn solve_sparse_with_engine(
        &self,
        sc: &SparseCost,
    ) -> Result<(SolveReport, ipu_sim::Engine), LsapError> {
        let (n, k) = (sc.n(), sc.k());
        if n >= (1 << 24) {
            return Err(LsapError::Backend {
                detail: format!("instance size {n} exceeds the 2^24 arg-max encoding limit"),
            });
        }
        let start = Instant::now();
        let backend = |e: ipu_sim::GraphError| LsapError::Backend {
            detail: e.to_string(),
        };
        // The sparse program is single-chip flat by construction, and the
        // position-indexed status scan requires the compressed zero lists.
        let mut ablation = self.ablation;
        ablation.compression = true;
        let layout = Layout::with_col_seg(
            n,
            self.config.tiles,
            self.config.threads_per_tile,
            self.col_seg,
        )
        .with_width(k);
        let mut builder = Builder::with_layout_storage(
            self.config.clone(),
            layout,
            ablation,
            Storage::Sparse { k },
        )
        .map_err(backend)?;
        let program = builder.assemble().map_err(backend)?;
        let Builder { g, t, .. } = builder;
        let mut engine = g.compile(program).map_err(backend)?;
        if let Some(cfg) = &self.profile {
            engine.enable_profiling(cfg.clone());
        }
        match self.next_fault_plan() {
            Some(plan) => engine.set_fault_plan(plan),
            None => engine.clear_fault_plan(),
        }

        let costs_f32: Vec<f32> = sc.costs_flat().iter().map(|&x| x as f32).collect();
        engine.write_f32(t.slack, &costs_f32).map_err(backend)?;
        let cand_i32: Vec<i32> = sc.cols_flat().iter().map(|&c| c as i32).collect();
        let t_cand = t.cand.expect("sparse storage has cand");
        engine.write_i32(t_cand, &cand_i32).map_err(backend)?;
        let neg1 = vec![-1i32; n];
        engine.write_i32(t.row_star, &neg1).map_err(backend)?;
        engine.write_i32(t.col_star, &neg1).map_err(backend)?;
        engine.write_i32(t.row_prime, &neg1).map_err(backend)?;

        engine.run().map_err(backend)?;
        let t_inf = t.infeasible.expect("sparse storage has infeasible");
        if engine.read_i32(t_inf)[0] != 0 {
            return Err(LsapError::SparseInfeasible { k });
        }
        let report = self.extract_report_sparse(&mut engine, &t, sc, start)?;
        Ok((report, engine))
    }

    /// [`HunIpu::extract_report`] for the sparse path: the objective
    /// comes from candidate costs (there is no dense matrix), and a
    /// matched edge outside the candidate set is memory corruption.
    fn extract_report_sparse(
        &self,
        engine: &mut ipu_sim::Engine,
        t: &crate::build::Ts,
        sc: &SparseCost,
        start: Instant,
    ) -> Result<SolveReport, LsapError> {
        let n = sc.n();
        let row_star = engine.read_i32(t.row_star);
        let row_to_col = row_star
            .iter()
            .map(|&j| (j >= 0).then_some(j as usize))
            .collect();
        let assignment = Assignment::from_row_to_col(row_to_col);
        let mut objective = 0.0;
        for (i, j) in assignment.pairs() {
            objective += sc.cost_of(i, j).ok_or_else(|| LsapError::Backend {
                detail: format!(
                    "sparse solve matched row {i} to column {j}, which is not a \
                     candidate; memory corruption suspected"
                ),
            })?;
        }
        let u: Vec<f64> = engine.read_f32(t.u).iter().map(|&x| x as f64).collect();
        let v: Vec<f64> = engine.read_f32(t.v).iter().map(|&x| x as f64).collect();
        let augmentations = read_counter(engine, t.ctr_aug, "ctr_aug", n as u64)?;
        let dual_updates = read_counter(engine, t.ctr_dual, "ctr_dual", (n as u64).pow(2))?;
        let stats = SolverStats {
            modeled_seconds: Some(engine.modeled_seconds()),
            modeled_cycles: Some(engine.stats().total_cycles()),
            wall_seconds: start.elapsed().as_secs_f64(),
            augmentations,
            dual_updates,
            device_steps: engine.stats().supersteps,
            profile_events: engine
                .profile()
                .map_or(0, |p| p.events.len() as u64 + p.dropped),
            ..Default::default()
        };
        Ok(SolveReport {
            assignment,
            objective,
            certificate: DualCertificate::new(u, v),
            stats,
        })
    }

    /// Solves a dense instance out-of-core via [`LayoutMode::Tiled`]
    /// block streaming, returning the report plus the engine. The cost
    /// matrix lives in a host tensor and streams through PCIe one
    /// `block_cols`-wide block at a time; only duals, matching state,
    /// and the active block are SRAM-resident, so instances whose dense
    /// slack would blow the per-tile budget still compile and solve.
    ///
    /// Costs must be integers with magnitude below 2^24: the streamed
    /// slack `c − u − v` is recomputed in f32 on every sweep — the three
    /// set-up sweeps, and in the search each time the resident zero
    /// lists cannot decide an iteration — and integer arithmetic is what
    /// keeps those recomputations exact (the same
    /// contract [`datasets::f32_exact`] documents for the dense path,
    /// hardened here into a precondition because zero-detection drives
    /// the search).
    pub fn solve_tiled(
        &self,
        matrix: &CostMatrix,
    ) -> Result<(SolveReport, ipu_sim::Engine), LsapError> {
        let n = self.validate_size(matrix)?;
        if let Some(&bad) = matrix
            .as_slice()
            .iter()
            .find(|c| c.fract() != 0.0 || c.abs() >= (1u64 << 24) as f64)
        {
            return Err(LsapError::Backend {
                detail: format!(
                    "tiled solve requires integer costs with |c| < 2^24 (streamed \
                     slacks are recomputed in f32); found {bad}"
                ),
            });
        }
        let start = Instant::now();
        let backend = |e: ipu_sim::GraphError| LsapError::Backend {
            detail: e.to_string(),
        };
        let block_cols = self.tiled_block_cols.clamp(1, n);
        let zcap = self.tiled_zcap.clamp(1, n);
        let layout = Layout::with_col_seg(
            n,
            self.config.tiles,
            self.config.threads_per_tile,
            self.col_seg,
        )
        .with_width(zcap);
        let mut builder = Builder::with_layout_storage(
            self.config.clone(),
            layout,
            self.ablation,
            Storage::Tiled { block_cols, zcap },
        )
        .map_err(backend)?;
        let program = builder.assemble_tiled().map_err(backend)?;
        let Builder { g, t, .. } = builder;
        let mut engine = g.compile(program).map_err(backend)?;
        if let Some(cfg) = &self.profile {
            engine.enable_profiling(cfg.clone());
        }
        match self.next_fault_plan() {
            Some(plan) => engine.set_fault_plan(plan),
            None => engine.clear_fault_plan(),
        }

        let cost_f32: Vec<f32> = matrix.as_slice().iter().map(|&x| x as f32).collect();
        let t_host = t.host_cost.expect("tiled storage has host_cost");
        engine.write_f32(t_host, &cost_f32).map_err(backend)?;
        let neg1 = vec![-1i32; n];
        engine.write_i32(t.row_star, &neg1).map_err(backend)?;
        engine.write_i32(t.col_star, &neg1).map_err(backend)?;
        engine.write_i32(t.row_prime, &neg1).map_err(backend)?;

        engine.run().map_err(backend)?;
        let t_inf = t.infeasible.expect("tiled storage has infeasible");
        if engine.read_i32(t_inf)[0] != 0 {
            return Err(LsapError::Backend {
                detail: "tiled solve latched a non-finite δ on a square dense \
                         instance; memory corruption suspected"
                    .into(),
            });
        }
        let report = self.extract_report(&mut engine, &t, matrix, start, false)?;
        Ok((report, engine))
    }

    /// Solves `dense` through the sparse k-candidate engine with
    /// certificate repair ([`lsap::solve_pruned_with_repair`]): prune to
    /// `k` candidates per row, solve on-device, verify against the dense
    /// certificate, re-admit violated columns and re-solve on failure,
    /// falling back to the dense device solve only after `max_rounds`.
    pub fn solve_pruned(
        &self,
        dense: &CostMatrix,
        k: usize,
        max_rounds: u32,
    ) -> Result<lsap::RepairReport, LsapError> {
        lsap::solve_pruned_with_repair(
            dense,
            k,
            max_rounds,
            F32_VERIFY_EPS,
            |sc| self.solve_sparse(sc),
            |m| self.solve_with_engine(m).map(|(report, _)| report),
        )
    }
}

/// Reads a device step counter and validates it against its theoretical
/// bound, turning corrupted values into [`LsapError::Backend`] instead of
/// nonsense statistics.
fn read_counter(
    engine: &mut ipu_sim::Engine,
    tensor: ipu_sim::Tensor,
    name: &str,
    max_plausible: u64,
) -> Result<u64, LsapError> {
    let raw = engine.read_i32(tensor)[0];
    if raw < 0 {
        return Err(LsapError::Backend {
            detail: format!(
                "device counter `{name}` read back negative ({raw}); memory corruption suspected"
            ),
        });
    }
    let value = raw as u64;
    if value > max_plausible {
        return Err(LsapError::Backend {
            detail: format!(
                "device counter `{name}` = {value} exceeds its theoretical bound \
                 {max_plausible}; memory corruption suspected"
            ),
        });
    }
    Ok(value)
}

impl LsapSolver for HunIpu {
    fn name(&self) -> &'static str {
        "hunipu"
    }

    fn solve(&mut self, matrix: &CostMatrix) -> Result<SolveReport, LsapError> {
        if matrix.is_square() && self.takes_tiled_path(matrix.n()) {
            return self.solve_tiled(matrix).map(|(report, _)| report);
        }
        self.solve_with_engine(matrix).map(|(report, _)| report)
    }
}
