//! Shared harness code for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! Each binary prints the paper's rows/series and writes a JSON record
//! under `target/experiments/` for provenance. Absolute numbers are
//! *modeled* device times (see the `calibration` modules of `ipu-sim`,
//! `gpu-sim`, and `cpu-hungarian`); the reproduction target is the
//! paper's **shape** — who wins, by roughly what factor, and how the
//! factors move with size and value range.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod baseline;
pub mod cli;
pub mod gates;
pub mod record;
pub mod runners;
pub mod serve_load;

pub use baseline::{
    compare, gate_main, load, save, Baseline, BaselineEntry, BatchBaseline, MeasuredCost,
    MultiIpuBaseline, MultiIpuEntry, PortfolioBaseline, PortfolioEntry, ResolveBaseline,
    ResolveEntry, ScaleBaseline, ScaleEntry, ServeBaseline, WallbenchBaseline, WallbenchEntry,
    CYCLE_TOLERANCE, MULTI_IPU_MIN_IMPROVEMENT, PORTFOLIO_MAX_REGRET, RESOLVE_MIN_SPEEDUP,
    SCALE_SPARSE_FLOOR_MIN_N, SCALE_SPARSE_MIN_SPEEDUP, WALLBENCH_MIN_SPEEDUP,
};
pub use cli::Args;
pub use gates::{diff_baselines, run_gates, GateSpec, GATES};
pub use record::{ExperimentRecord, Measurement};
pub use runners::{fmt_time, run_cpu, run_fastha, run_hunipu, CpuExtrapolator};
pub use serve_load::{calibrate_service_cycles, run_open_loop, LoadSpec, LoadSummary};
