//! Per-layer device accounting read from the counters a solve returns:
//! `CycleStats` (ipu-sim) and `SolverStats` (hunipu via lsap).

use crate::metrics::Metrics;
use ipu_sim::CycleStats;
use lsap::SolverStats;

/// Step group of a compute set, from its name's first `.`-separated
/// component: `stepN` is the paper's Step N, `prime` (the Step-4 prime
/// lookup) is Step 4, and `begin_search`, `compress` and `tsetup` (search
/// entry, slack re-compression and the tiled layout's set-up sweep) are
/// "other", index 0. Any other name is unattributed, `None`.
pub fn step_group(compute_set: &str) -> Option<usize> {
    match compute_set.split('.').next()? {
        "step1" => Some(1),
        "step2" => Some(2),
        "step3" => Some(3),
        "step4" | "prime" => Some(4),
        "step5" => Some(5),
        "step6" => Some(6),
        "begin_search" | "compress" | "tsetup" => Some(0),
        _ => None,
    }
}

/// Compute cycles split by step group, index 0 for "other". Checks that
/// every compute set is attributed and that the groups sum exactly to
/// `stats.compute_cycles`.
pub fn step_cycles(stats: &CycleStats) -> Result<[u64; 7], String> {
    let mut groups = [0u64; 7];
    for set in &stats.per_compute_set {
        let g = step_group(&set.name)
            .ok_or_else(|| format!("compute set `{}` has no step group", set.name))?;
        groups[g] += set.compute_cycles;
    }
    let sum: u64 = groups.iter().sum();
    if sum != stats.compute_cycles {
        return Err(format!(
            "step groups sum to {sum} cycles, compute_cycles is {}",
            stats.compute_cycles
        ));
    }
    Ok(groups)
}

/// Executions of `step4.status`: one per Step-4 search iteration.
pub fn step4_iterations(stats: &CycleStats) -> u64 {
    stats
        .per_compute_set
        .iter()
        .filter(|s| s.name == "step4.status")
        .map(|s| s.executions)
        .sum()
}

/// Per-op sums of the device counters over a set of solves.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct DeviceTally {
    ops: u64,
    compute: u64,
    sync: u64,
    exchange: u64,
    control: u64,
    supersteps: u64,
    exchanges: u64,
    exchange_bytes: u64,
    host_bytes: u64,
    steps: [u64; 7],
    step4_iterations: u64,
    program_load: u64,
    peak_tile_bytes: usize,
    augmentations: u64,
    dual_updates: u64,
}

impl DeviceTally {
    /// Adds one solve. Fails when the layers do not reconcile: the four
    /// cycle classes must sum exactly to the cycles the solver reported,
    /// and the step groups exactly to the compute cycles.
    pub fn add(
        &mut self,
        stats: &CycleStats,
        solver: &SolverStats,
        program_load_cycles: u64,
        peak_tile_bytes: usize,
    ) -> Result<(), String> {
        let classes =
            stats.compute_cycles + stats.sync_cycles + stats.exchange_cycles + stats.control_cycles;
        if Some(classes) != solver.modeled_cycles {
            return Err(format!(
                "compute + sync + exchange + control = {classes} cycles, solver reported {:?}",
                solver.modeled_cycles
            ));
        }
        let steps = step_cycles(stats)?;
        self.ops += 1;
        self.compute += stats.compute_cycles;
        self.sync += stats.sync_cycles;
        self.exchange += stats.exchange_cycles;
        self.control += stats.control_cycles;
        self.supersteps += stats.supersteps;
        self.exchanges += stats.exchanges;
        self.exchange_bytes += stats.exchange_bytes;
        self.host_bytes += stats.host_bytes;
        for (sum, g) in self.steps.iter_mut().zip(steps) {
            *sum += g;
        }
        self.step4_iterations += step4_iterations(stats);
        self.program_load += program_load_cycles;
        self.peak_tile_bytes = self.peak_tile_bytes.max(peak_tile_bytes);
        self.augmentations += solver.augmentations;
        self.dual_updates += solver.dual_updates;
        Ok(())
    }

    /// Total modeled cycles over all solves added.
    pub fn total_cycles(&self) -> u64 {
        self.compute + self.sync + self.exchange + self.control
    }

    /// Records the per-solve means of every device counter.
    pub fn put_metrics(&self, m: &mut Metrics) {
        let per_op = |x: u64| x as f64 / self.ops.max(1) as f64;
        m.put(
            "hunipu.program_load_cycles",
            per_op(self.program_load),
            "cycles",
        );
        for (g, &cycles) in self.steps.iter().enumerate() {
            let name = match g {
                0 => "hunipu.other.compute_cycles".to_string(),
                g => format!("hunipu.step{g}.compute_cycles"),
            };
            m.put(&name, per_op(cycles), "cycles");
        }
        m.put(
            "hunipu.step4.iterations",
            per_op(self.step4_iterations),
            "count",
        );
        m.put(
            "hunipu.supersteps_per_step4_iter",
            ratio(self.supersteps, self.step4_iterations),
            "ratio",
        );
        m.put("hunipu.augmentations", per_op(self.augmentations), "count");
        m.put("hunipu.dual_updates", per_op(self.dual_updates), "count");
        m.put("ipu-sim.compute_cycles", per_op(self.compute), "cycles");
        m.put("ipu-sim.sync_cycles", per_op(self.sync), "cycles");
        m.put("ipu-sim.exchange_cycles", per_op(self.exchange), "cycles");
        m.put("ipu-sim.control_cycles", per_op(self.control), "cycles");
        m.put("ipu-sim.supersteps", per_op(self.supersteps), "count");
        m.put("ipu-sim.exchanges", per_op(self.exchanges), "count");
        m.put(
            "ipu-sim.exchange_bytes",
            per_op(self.exchange_bytes),
            "bytes",
        );
        m.put("ipu-sim.host_bytes", per_op(self.host_bytes), "bytes");
        m.put(
            "ipu-sim.total_over_compute",
            ratio(self.total_cycles(), self.compute),
            "ratio",
        );
        m.put(
            "ipu-sim.peak_tile_bytes",
            self.peak_tile_bytes as f64,
            "bytes",
        );
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hunipu::HunIpu;
    use ipu_sim::{IpuConfig, StepBreakdown};

    #[test]
    fn step_groups_follow_the_documented_mapping() {
        assert_eq!(step_group("step1.colmin.colcombine[8]"), Some(1));
        assert_eq!(step_group("step4.enc.final.chunks"), Some(4));
        assert_eq!(step_group("prime.star.pick.combine"), Some(4));
        assert_eq!(step_group("step6.update"), Some(6));
        assert_eq!(step_group("tsetup.zlist[3]"), Some(0));
        assert_eq!(step_group("compress"), Some(0));
        assert_eq!(step_group("begin_search"), Some(0));
        assert_eq!(step_group("mystery.set"), None);
    }

    #[test]
    fn an_unattributed_compute_set_is_an_error() {
        let stats = CycleStats {
            compute_cycles: 5,
            per_compute_set: vec![StepBreakdown {
                name: "mystery".into(),
                executions: 1,
                compute_cycles: 5,
            }],
            ..Default::default()
        };
        assert!(step_cycles(&stats).unwrap_err().contains("mystery"));
    }

    fn reconcile(solver: &HunIpu, m: &lsap::CostMatrix, tiled: bool) -> DeviceTally {
        let (report, engine) = if tiled {
            solver.solve_tiled(m).unwrap()
        } else {
            solver.solve_with_engine(m).unwrap()
        };
        let mut tally = DeviceTally::default();
        tally
            .add(
                engine.stats(),
                &report.stats,
                engine.program_load_cycles(),
                engine.peak_tile_bytes(),
            )
            .unwrap();
        let groups = step_cycles(engine.stats()).unwrap();
        assert_eq!(groups.iter().sum::<u64>(), engine.stats().compute_cycles);
        assert!(groups[4] > 0, "the search ran");
        tally
    }

    #[test]
    fn dense_and_tiled_solves_reconcile_exactly() {
        let solver = HunIpu::with_config(IpuConfig::tiny(8));
        let dense = reconcile(&solver, &datasets::gaussian_cost_matrix(24, 10, 3), false);
        assert!(dense.steps[1] > 0, "a cold dense solve runs Step 1");
        let tiled = reconcile(&solver, &datasets::diag_dominant(48, 3, 6), true);
        assert!(
            tiled.steps[0] > 0,
            "the tiled set-up sweep is attributed to other"
        );
        assert!(
            tiled.host_bytes > 0,
            "the tiled path streams over the host link"
        );
    }

    #[test]
    fn a_misreported_total_fails_reconciliation() {
        let solver = HunIpu::with_config(IpuConfig::tiny(8));
        let m = datasets::gaussian_cost_matrix(12, 10, 1);
        let (mut report, engine) = solver.solve_with_engine(&m).unwrap();
        report.stats.modeled_cycles = report.stats.modeled_cycles.map(|c| c + 1);
        let err = DeviceTally::default()
            .add(engine.stats(), &report.stats, 0, 0)
            .unwrap_err();
        assert!(err.contains("compute + sync + exchange + control"), "{err}");
    }
}
