//! The ablation variants must stay *correct* — they only trade
//! performance. Every variant must return the same optimal objective and
//! a valid certificate.

use hunipu::{AblationConfig, DynSlice, HunIpu, PrimeMode, F32_VERIFY_EPS};
use ipu_sim::IpuConfig;
use lsap::{CostMatrix, LsapSolver};

fn instance(n: usize, seed: u64) -> CostMatrix {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    CostMatrix::from_fn(n, n, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 211) as f64
    })
    .unwrap()
}

fn objective_with(m: &CostMatrix, ab: AblationConfig) -> f64 {
    let mut solver = HunIpu::with_config(IpuConfig::tiny(8)).with_ablation(ab);
    let rep = solver.solve(m).unwrap();
    rep.verify(m, F32_VERIFY_EPS).unwrap();
    rep.objective
}

#[test]
fn no_compression_matches_default() {
    for seed in 0..6 {
        let m = instance(13, seed);
        let base = objective_with(&m, AblationConfig::default());
        let no_comp = objective_with(
            &m,
            AblationConfig {
                compression: false,
                ..Default::default()
            },
        );
        assert_eq!(base, no_comp, "seed {seed}");
    }
}

#[test]
fn single_tile_dynslice_matches_default() {
    for seed in 0..6 {
        let m = instance(11, seed);
        let base = objective_with(&m, AblationConfig::default());
        let single = objective_with(
            &m,
            AblationConfig {
                dyn_slice: DynSlice::SingleTileGather,
                ..Default::default()
            },
        );
        assert_eq!(base, single, "seed {seed}");
    }
}

#[test]
fn both_ablations_together_match_default() {
    let m = instance(10, 99);
    let base = objective_with(&m, AblationConfig::default());
    let both = objective_with(
        &m,
        AblationConfig {
            compression: false,
            dyn_slice: DynSlice::SingleTileGather,
            prime: PrimeMode::ThreePhase,
        },
    );
    assert_eq!(base, both);
}

#[test]
fn compression_reduces_modeled_step4_cost() {
    // On a sparse-zero instance, the compressed status scan must be
    // cheaper than the raw row scan.
    let m = instance(32, 7);
    let run = |compression: bool| {
        let solver = HunIpu::with_config(IpuConfig::tiny(8)).with_ablation(AblationConfig {
            compression,
            ..Default::default()
        });
        let (rep, engine) = solver.solve_with_engine(&m).unwrap();
        let status_cycles: u64 = engine
            .stats()
            .per_compute_set
            .iter()
            .filter(|b| b.name == "step4.status")
            .map(|b| b.compute_cycles)
            .sum();
        (rep.objective, status_cycles)
    };
    let (obj_on, cycles_on) = run(true);
    let (obj_off, cycles_off) = run(false);
    assert_eq!(obj_on, obj_off);
    assert!(
        cycles_off > cycles_on,
        "raw scans ({cycles_off}) must cost more than compressed ({cycles_on})"
    );
}

#[test]
fn single_tile_dynslice_moves_more_bytes() {
    let m = instance(24, 3);
    let run = |dyn_slice: DynSlice| {
        let solver = HunIpu::with_config(IpuConfig::tiny(8)).with_ablation(AblationConfig {
            dyn_slice,
            ..Default::default()
        });
        let (_, engine) = solver.solve_with_engine(&m).unwrap();
        engine.stats().exchange_bytes
    };
    let pd = run(DynSlice::PartitionDistribute);
    let st = run(DynSlice::SingleTileGather);
    assert!(
        st > pd,
        "single-tile shipping ({st} B) must exceed partition-and-distribute ({pd} B)"
    );
}
