//! Differential tests for the batched Step 4 prime: the default prime
//! (every ready row in one fused superstep) against the paper's
//! single-row three-phase prime ([`PrimeMode::ThreePhase`]) on every
//! program that runs the search loop — dense, seeded re-solve, sparse,
//! tiled and chip-aware. The batched solve must verify and reach the same
//! objective in strictly fewer Step 4 iterations and modeled cycles,
//! with at most six compute supersteps per prime iteration and none of
//! the three-phase prime's sets. Assignments may differ on ties.

use datasets::{gaussian_cost_matrix, prune_topk};
use hunipu::{AblationConfig, HunIpu, LayoutMode, PrimeMode, F32_VERIFY_EPS};
use ipu_sim::{CycleStats, IpuConfig};
use lsap::{CostMatrix, SolveReport, WarmStart};

const BATCHED: AblationConfig = AblationConfig {
    compression: true,
    dyn_slice: hunipu::DynSlice::PartitionDistribute,
    prime: PrimeMode::Batched,
};
const THREE_PHASE: AblationConfig = AblationConfig {
    prime: PrimeMode::ThreePhase,
    ..BATCHED
};

fn executions(stats: &CycleStats, name: &str) -> u64 {
    stats
        .per_compute_set
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.executions)
        .sum()
}

/// Compute supersteps one prime iteration of the batched program runs:
/// the Step 4 sets every search iteration executes (scan, arg-max,
/// decode — each once per `step4.status`) plus the prime branch's one
/// set. Also asserts that every other Step 4 set belongs to a different
/// branch, so nothing uncounted hides on the prime path, and that none
/// of the three-phase prime's sets runs. The tiled program has one such
/// branch the others lack: an iteration its zero lists cannot decide
/// streams the matrix (`step4.sweepinit` and one `step4.scan[b]` per
/// block) and runs the arg-max and decode once more; the count is for a
/// prime iteration that does not stream.
fn batched_supersteps_per_prime(rep: &SolveReport, stats: &CycleStats) -> u64 {
    let iterations = executions(stats, "step4.status");
    let streamed = executions(stats, "step4.sweepinit");
    let primes = iterations - rep.stats.augmentations - rep.stats.dual_updates;
    assert!(primes > 0, "instance must exercise the prime branch");
    assert_eq!(executions(stats, "step4.prime"), primes);
    let mut common = 0;
    for set in &stats.per_compute_set {
        if set.name.starts_with("prime.") || set.name == "step4.uncover" {
            assert_eq!(set.executions, 0, "{} runs on the batched path", set.name);
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

/// Checks one batched solve against the three-phase solve of the same
/// instance (the batched certificate is verified by the caller).
fn compare(
    (batched, batched_stats): (&SolveReport, &CycleStats),
    (paper, paper_stats): (&SolveReport, &CycleStats),
) {
    assert_eq!(batched.objective.to_bits(), paper.objective.to_bits());
    // Every augmentation grows the matching by one from the same Step 2
    // matching, whichever rows the primes covered.
    assert_eq!(batched.stats.augmentations, paper.stats.augmentations);
    let (b, p) = (
        executions(batched_stats, "step4.status"),
        executions(paper_stats, "step4.status"),
    );
    assert!(b < p, "{b} Step 4 iterations batched, {p} three-phase");
    assert!(batched_stats.total_cycles() < paper_stats.total_cycles());
    let per_prime = batched_supersteps_per_prime(batched, batched_stats);
    assert!(per_prime <= 6, "{per_prime} compute supersteps per prime");
    assert!(executions(paper_stats, "step4.uncover") > 0);
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

/// Dense solves under both schedules; returns the Step 4 iterations and
/// total cycles of each, batched first.
fn dense_pair(solver: HunIpu, m: &CostMatrix) -> [(u64, u64); 2] {
    let (batched, batched_engine) = solver
        .clone()
        .with_ablation(BATCHED)
        .solve_with_engine(m)
        .unwrap();
    let (paper, paper_engine) = solver
        .with_ablation(THREE_PHASE)
        .solve_with_engine(m)
        .unwrap();
    batched.verify(m, F32_VERIFY_EPS).unwrap();
    compare(
        (&batched, batched_engine.stats()),
        (&paper, paper_engine.stats()),
    );
    [batched_engine.stats(), paper_engine.stats()]
        .map(|s| (executions(s, "step4.status"), s.total_cycles()))
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

/// The batched prime's acceptance gate on the Mk2 model (Gaussian k=10,
/// seed 1): at least 3× fewer Step 4 iterations and 1.5× fewer modeled
/// cycles than priming one row per iteration.
#[test]
fn mk2_gate_iterations_and_cycles() {
    for n in [256, 512] {
        let [(b_iter, b_cyc), (p_iter, p_cyc)] = dense_pair(
            HunIpu::with_config(watched(IpuConfig::mk2())),
            &instance(n, 1),
        );
        assert!(
            b_iter * 3 <= p_iter,
            "n={n}: {b_iter} Step 4 iterations batched, {p_iter} three-phase"
        );
        assert!(
            b_cyc * 3 <= p_cyc * 2,
            "n={n}: {b_cyc} cycles batched, {p_cyc} three-phase"
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
    let (batched, batched_stats) = run(BATCHED);
    let (paper, paper_stats) = run(THREE_PHASE);
    compare((&batched, &batched_stats), (&paper, &paper_stats));
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
    let (batched, batched_engine) = run(BATCHED);
    let (paper, paper_engine) = run(THREE_PHASE);
    sc.verify_report(&batched, F32_VERIFY_EPS).unwrap();
    compare(
        (&batched, batched_engine.stats()),
        (&paper, paper_engine.stats()),
    );
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
    let (batched, batched_engine) = run(BATCHED);
    let (paper, paper_engine) = run(THREE_PHASE);
    batched.verify(&m, F32_VERIFY_EPS).unwrap();
    // A prime iteration the zero lists decide streams nothing, so it runs
    // the dense program's supersteps; the prime branch is the one fused set.
    compare(
        (&batched, batched_engine.stats()),
        (&paper, paper_engine.stats()),
    );
}
