//! The tiled (out-of-core) scenarios shared by the tiled integration
//! tests: the tie-heavy `(i·31 + j·17) mod 23` family at small zero-list
//! capacities (rows with more zeros than `zcap` get truncated lists), a
//! uniform instance with dual updates, and a large diagonal-dominant
//! instance whose search needs neither.

use datasets::{diag_dominant, uniform_cost_matrix};
use hunipu::{AblationConfig, HunIpu, PrimeMode, F32_VERIFY_EPS};
use ipu_sim::{CycleStats, Engine, IpuConfig};
use lsap::{CostMatrix, SolveReport};

pub struct Scenario {
    pub name: &'static str,
    pub matrix: CostMatrix,
    pub solver: HunIpu,
}

pub fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for (name, n, tiles, bc, zcap) in [
        ("ties23-n16", 16, 5, 8, 3),
        ("ties23-n48", 48, 7, 16, 4),
        ("ties23-n96", 96, 11, 32, 8),
    ] {
        out.push(Scenario {
            name,
            matrix: CostMatrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) % 23) as f64).unwrap(),
            solver: HunIpu::with_config(IpuConfig::tiny(tiles)).with_tiled_params(bc, zcap),
        });
    }
    out.push(Scenario {
        name: "uniform-n64",
        matrix: uniform_cost_matrix(64, 1, 7),
        solver: HunIpu::with_config(IpuConfig::tiny(9)).with_tiled_params(16, 6),
    });
    out.push(Scenario {
        name: "diag-n1024",
        matrix: diag_dominant(1024, 3, 8),
        solver: HunIpu::with_config(IpuConfig::tiny(64)),
    });
    out
}

/// Solves one scenario on the tiled program with the given prime
/// schedule and checks its certificate.
pub fn solve(s: &Scenario, prime: PrimeMode) -> (SolveReport, Engine) {
    let solver = s.solver.clone().with_ablation(AblationConfig {
        prime,
        ..AblationConfig::default()
    });
    let (report, engine) = solver.solve_tiled(&s.matrix).expect(s.name);
    report.verify(&s.matrix, F32_VERIFY_EPS).expect(s.name);
    (report, engine)
}

/// Executions of every compute set named `name`.
pub fn executions(stats: &CycleStats, name: &str) -> u64 {
    stats
        .per_compute_set
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.executions)
        .sum()
}
