//! Differential tests for the fused Step 4 prime: the default
//! one-superstep prime must leave every solve output bit-identical to
//! the paper's three-phase prime ([`PrimeMode::ThreePhase`]) on every
//! program that runs the search loop — dense, seeded re-solve, sparse,
//! tiled and chip-aware — while executing at most six compute
//! supersteps per prime iteration and none of the `prime.star` read.

use datasets::{gaussian_cost_matrix, prune_topk};
use hunipu::{AblationConfig, HunIpu, LayoutMode, PrimeMode, F32_VERIFY_EPS};
use ipu_sim::{CycleStats, IpuConfig};
use lsap::{CostMatrix, SolveReport, WarmStart};

const FUSED: AblationConfig = AblationConfig {
    compression: true,
    dyn_slice: hunipu::DynSlice::PartitionDistribute,
    prime: PrimeMode::Fused,
};
const THREE_PHASE: AblationConfig = AblationConfig {
    prime: PrimeMode::ThreePhase,
    ..FUSED
};

/// Everything the prime schedule must not change, bit-exact.
fn outputs(rep: &SolveReport, stats: &CycleStats) -> String {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    format!(
        "obj={:016x} pairs={:?} u={:?} v={:?} aug={} dual={} status={}",
        rep.objective.to_bits(),
        rep.assignment.pairs().collect::<Vec<_>>(),
        bits(&rep.certificate.u),
        bits(&rep.certificate.v),
        rep.stats.augmentations,
        rep.stats.dual_updates,
        executions(stats, "step4.status"),
    )
}

fn executions(stats: &CycleStats, name: &str) -> u64 {
    stats
        .per_compute_set
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.executions)
        .sum()
}

/// Compute supersteps one prime iteration of the fused program runs: the
/// Step 4 sets every search iteration executes (scan, arg-max, decode —
/// each once per `step4.status`) plus the prime branch's one set. Also
/// asserts that every other Step 4 set belongs to a different branch, so
/// nothing uncounted hides on the prime path. The tiled program has one
/// such branch the others lack: an iteration its zero lists cannot
/// decide streams the matrix (`step4.sweepinit` and one `step4.scan[b]`
/// per block) and runs the arg-max and decode once more; the count is
/// for a prime iteration that does not stream.
fn fused_supersteps_per_prime(rep: &SolveReport, stats: &CycleStats) -> u64 {
    let iterations = executions(stats, "step4.status");
    let streamed = executions(stats, "step4.sweepinit");
    let primes = iterations - rep.stats.augmentations - rep.stats.dual_updates;
    assert!(primes > 0, "instance must exercise the prime branch");
    assert_eq!(executions(stats, "step4.prime"), primes);
    let mut common = 0;
    for set in &stats.per_compute_set {
        if set.name.starts_with("prime.") || set.name == "step4.uncover" {
            assert_eq!(set.executions, 0, "{} runs on the fused path", set.name);
        } else if set.name.starts_with("step4.") && set.name != "step4.prime" {
            if set.name.starts_with("step4.selcol.") {
                // The zero-column read is the augment branch's alone.
                assert_eq!(set.executions, rep.stats.augmentations, "{}", set.name);
            } else if set.name == "step4.sweepinit" || set.name.starts_with("step4.scan[") {
                assert_eq!(set.executions, streamed, "{}", set.name);
            } else if set.name == "step4.status" {
                common += 1;
            } else {
                assert_eq!(set.executions, iterations + streamed, "{}", set.name);
                common += 1;
            }
        }
    }
    common + 1
}

fn instance(n: usize, seed: u64) -> CostMatrix {
    gaussian_cost_matrix(n, 10, seed)
}

/// A prime that corrupts the cover state can keep the search loop
/// spinning; a tight watchdog turns that into an error instead of a hang.
fn watched(config: IpuConfig) -> IpuConfig {
    IpuConfig {
        max_while_iterations: 50_000,
        ..config
    }
}

/// Dense solves: fused and three-phase outputs agree, and the fused
/// prime iteration fits in six compute supersteps.
fn dense_pair(solver: HunIpu, m: &CostMatrix) {
    let (fused, fused_engine) = solver
        .clone()
        .with_ablation(FUSED)
        .solve_with_engine(m)
        .unwrap();
    let (paper, paper_engine) = solver
        .with_ablation(THREE_PHASE)
        .solve_with_engine(m)
        .unwrap();
    fused.verify(m, F32_VERIFY_EPS).unwrap();
    assert_eq!(
        outputs(&fused, fused_engine.stats()),
        outputs(&paper, paper_engine.stats())
    );
    let per_prime = fused_supersteps_per_prime(&fused, fused_engine.stats());
    assert!(per_prime <= 6, "{per_prime} compute supersteps per prime");
    assert!(executions(paper_engine.stats(), "step4.uncover") > 0);
    assert!(fused_engine.stats().total_cycles() < paper_engine.stats().total_cycles());
}

#[test]
fn dense_mk2_n64() {
    dense_pair(
        HunIpu::with_config(watched(IpuConfig::mk2())),
        &instance(64, 1),
    );
}

#[test]
fn dense_mk2_n256() {
    dense_pair(
        HunIpu::with_config(watched(IpuConfig::mk2())),
        &instance(256, 1),
    );
}

#[test]
fn dense_tiny64() {
    for seed in [1, 2, 3] {
        dense_pair(
            HunIpu::with_config(watched(IpuConfig::tiny(64))),
            &instance(64, seed),
        );
    }
}

#[test]
fn chip_aware_two_and_four_chips() {
    for (config, n) in [
        (IpuConfig::tiny_multi(2, 8), 32),
        (IpuConfig::tiny_multi(4, 8), 48),
    ] {
        let solver = HunIpu::with_config(watched(config)).with_layout_mode(LayoutMode::ChipAware);
        assert!(solver.hierarchical());
        dense_pair(solver, &instance(n, 5));
    }
}

#[test]
fn seeded_resolve() {
    let n = 64;
    let m = instance(n, 3);
    // Perturb every 16th row: the seeded program re-solves from the
    // previous duals and matching.
    let fresh = instance(n, 4);
    let m2 = CostMatrix::from_fn(n, n, |i, j| {
        if i % 16 == 0 {
            fresh.get(i, j)
        } else {
            m.get(i, j)
        }
    })
    .unwrap();
    let run = |ab: AblationConfig| {
        let solver = HunIpu::with_config(watched(IpuConfig::tiny(64))).with_ablation(ab);
        let mut warm = solver.warm(n).unwrap();
        let cold = warm.solve(&solver, &m).unwrap();
        let seeded = warm
            .solve_seeded(&solver, &m2, &WarmStart::from_report(&cold))
            .unwrap();
        assert!(seeded.stats.seeded);
        seeded.verify(&m2, F32_VERIFY_EPS).unwrap();
        let stats = warm.seeded_engine().unwrap().stats().clone();
        (seeded, stats)
    };
    let (fused, fused_stats) = run(FUSED);
    let (paper, paper_stats) = run(THREE_PHASE);
    assert_eq!(outputs(&fused, &fused_stats), outputs(&paper, &paper_stats));
    assert!(fused_supersteps_per_prime(&fused, &fused_stats) <= 6);
}

#[test]
fn sparse_k8() {
    let m = instance(64, 6);
    let sc = prune_topk(&m, 8);
    let run = |ab: AblationConfig| {
        HunIpu::with_config(watched(IpuConfig::tiny(64)))
            .with_ablation(ab)
            .solve_sparse_with_engine(&sc)
            .unwrap()
    };
    let (fused, fused_engine) = run(FUSED);
    let (paper, paper_engine) = run(THREE_PHASE);
    sc.verify_report(&fused, F32_VERIFY_EPS).unwrap();
    assert_eq!(
        outputs(&fused, fused_engine.stats()),
        outputs(&paper, paper_engine.stats())
    );
    assert!(fused_supersteps_per_prime(&fused, fused_engine.stats()) <= 6);
}

#[test]
fn tiled() {
    let m = instance(64, 7);
    let run = |ab: AblationConfig| {
        HunIpu::with_config(watched(IpuConfig::tiny(9)))
            .with_tiled_params(16, 6)
            .with_ablation(ab)
            .solve_tiled(&m)
            .unwrap()
    };
    let (fused, fused_engine) = run(FUSED);
    let (paper, paper_engine) = run(THREE_PHASE);
    fused.verify(&m, F32_VERIFY_EPS).unwrap();
    assert_eq!(
        outputs(&fused, fused_engine.stats()),
        outputs(&paper, paper_engine.stats())
    );
    // A prime iteration the zero lists decide streams nothing, so it runs
    // the dense program's supersteps; the prime branch is the one fused set.
    assert!(fused_supersteps_per_prime(&fused, fused_engine.stats()) <= 6);
}
