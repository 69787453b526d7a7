//! Sparse k-candidate LSAP instances and the certificate-gated repair
//! loop that makes pruned solves safe.
//!
//! Pruning a dense instance to its `k` cheapest columns per row (GRAMPA
//! style) shrinks both memory and the slack-scan hot loop from `O(n²)`
//! to `O(n·k)` — but it can cut an edge the optimum needs, or even leave
//! some rows without a perfect matching at all. This module keeps the
//! speed while restoring the optimality story the rest of the workspace
//! relies on:
//!
//! - [`SparseCost`] — the uniform-`k` CSR-style instance (column ids +
//!   costs per row) every sparse engine consumes,
//! - [`SparseCost::verify_report`] — LP-duality verification *relative
//!   to the pruned instance* (what a sparse solver can honestly claim),
//! - [`violated_entries`] — the dense screen that finds exactly the
//!   entries whose reduced cost went negative, i.e. where the pruned
//!   duals overpay because an optimal edge was cut,
//! - [`solve_pruned_with_repair`] — the driver: solve pruned, check the
//!   certificate against the *dense* instance, re-admit violated
//!   columns and re-solve, escalate `k` on infeasibility
//!   ([`LsapError::SparseInfeasible`]), and fall back to a dense solve
//!   only as a last resort. The returned report is always verified
//!   against the dense instance, so a pruned answer is never silently
//!   wrong.

use crate::{CostMatrix, DualCertificate, LsapError, SolveReport};
use std::collections::BTreeSet;

/// A square LSAP instance restricted to `k` candidate columns per row,
/// stored CSR-style: row `i`'s candidates are `cols[i*k..(i+1)*k]` with
/// matching `costs`. Candidate lists are sorted by column id; a row may
/// repeat a candidate (padding after column re-admission), which every
/// consumer treats as the single entry it is.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCost {
    n: usize,
    k: usize,
    cols: Vec<u32>,
    costs: Vec<f64>,
}

impl SparseCost {
    /// Builds an instance from raw row-major candidate arrays.
    ///
    /// # Errors
    /// Rejects empty shapes, `k > n`, length mismatches, out-of-range
    /// column ids, and NaN costs.
    pub fn new(n: usize, k: usize, cols: Vec<u32>, costs: Vec<f64>) -> Result<Self, LsapError> {
        if n == 0 || k == 0 {
            return Err(LsapError::EmptyMatrix);
        }
        if k > n {
            return Err(LsapError::ShapeMismatch {
                expected: format!("k <= n = {n}"),
                found: format!("k = {k}"),
            });
        }
        if cols.len() != n * k || costs.len() != n * k {
            return Err(LsapError::ShapeMismatch {
                expected: format!("{} candidate entries", n * k),
                found: format!("{} ids / {} costs", cols.len(), costs.len()),
            });
        }
        for (idx, (&c, &w)) in cols.iter().zip(&costs).enumerate() {
            if c as usize >= n {
                return Err(LsapError::IndexOutOfBounds {
                    index: c as usize,
                    bound: n,
                });
            }
            if w.is_nan() {
                return Err(LsapError::NanCost {
                    row: idx / k,
                    col: c as usize,
                });
            }
        }
        Ok(Self { n, k, cols, costs })
    }

    /// Prunes a dense instance to its `k` cheapest columns per row (ties
    /// broken toward the lower column id, so pruning is deterministic),
    /// candidate lists sorted by column id.
    pub fn from_dense_topk(m: &CostMatrix, k: usize) -> Result<Self, LsapError> {
        Self::from_dense_topk_extra(m, k, &[])
    }

    /// Like [`SparseCost::from_dense_topk`], plus per-row re-admitted
    /// columns (`extra[i]` joins row `i`'s candidates). The result stays
    /// uniform-`k`: every row is padded to the widest row by repeating
    /// its cheapest candidate, which is semantically a no-op.
    pub fn from_dense_topk_extra(
        m: &CostMatrix,
        k: usize,
        extra: &[BTreeSet<usize>],
    ) -> Result<Self, LsapError> {
        if !m.is_square() {
            return Err(LsapError::NotSquare {
                rows: m.rows(),
                cols: m.cols(),
            });
        }
        let n = m.n();
        let k = k.min(n);
        if n == 0 || k == 0 {
            return Err(LsapError::EmptyMatrix);
        }
        let mut rows: Vec<Vec<usize>> = Vec::with_capacity(n);
        for i in 0..n {
            let mut idx: Vec<usize> = (0..n).collect();
            idx.sort_by(|&a, &b| m.get(i, a).total_cmp(&m.get(i, b)).then(a.cmp(&b)));
            let mut cand: BTreeSet<usize> = idx[..k].iter().copied().collect();
            if let Some(ex) = extra.get(i) {
                cand.extend(ex.iter().copied());
            }
            rows.push(cand.into_iter().collect());
        }
        let k_eff = rows.iter().map(Vec::len).fold(0, usize::max);
        let mut cols = Vec::with_capacity(n * k_eff);
        let mut costs = Vec::with_capacity(n * k_eff);
        for (i, row) in rows.iter().enumerate() {
            let cheapest = *row
                .iter()
                .min_by(|&&a, &&b| m.get(i, a).total_cmp(&m.get(i, b)).then(a.cmp(&b)))
                .expect("k >= 1");
            for pad in row.iter().chain(std::iter::repeat(&cheapest)).take(k_eff) {
                cols.push(*pad as u32);
                costs.push(m.get(i, *pad));
            }
        }
        Self::new(n, k_eff, cols, costs)
    }

    /// Instance size (rows == columns).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Candidate columns per row.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Stored entries (`n * k`, counting padded duplicates).
    pub fn nnz(&self) -> usize {
        self.n * self.k
    }

    /// Row `i`'s candidate column ids.
    pub fn row_cols(&self, i: usize) -> &[u32] {
        &self.cols[i * self.k..(i + 1) * self.k]
    }

    /// Row `i`'s candidate costs (parallel to [`SparseCost::row_cols`]).
    pub fn row_costs(&self, i: usize) -> &[f64] {
        &self.costs[i * self.k..(i + 1) * self.k]
    }

    /// All candidate column ids, row-major (device upload order).
    pub fn cols_flat(&self) -> &[u32] {
        &self.cols
    }

    /// All candidate costs, row-major (device upload order).
    pub fn costs_flat(&self) -> &[f64] {
        &self.costs
    }

    /// The cost of candidate edge `(i, j)`, if `j` is a candidate of `i`.
    pub fn cost_of(&self, i: usize, j: usize) -> Option<f64> {
        self.row_cols(i)
            .iter()
            .position(|&c| c as usize == j)
            .map(|p| self.row_costs(i)[p])
    }

    /// Iterates `(row, col, cost)` over every stored entry.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.cols
            .iter()
            .zip(&self.costs)
            .enumerate()
            .map(move |(idx, (&c, &w))| (idx / self.k, c as usize, w))
    }

    /// Smallest and largest stored cost.
    pub fn min_max(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &w in &self.costs {
            lo = lo.min(w);
            hi = hi.max(w);
        }
        (lo, hi)
    }

    /// Expands to a dense matrix with `fill` on the pruned entries —
    /// the ground-truth bridge for differential tests (`fill` must
    /// dominate any optimal edge, e.g. `n * max_cost + 1`).
    pub fn to_dense(&self, fill: f64) -> Result<CostMatrix, LsapError> {
        let mut data = vec![fill; self.n * self.n];
        for (i, j, w) in self.entries() {
            data[i * self.n + j] = w;
        }
        CostMatrix::from_vec(self.n, self.n, data)
    }

    /// A `fill` value for [`SparseCost::to_dense`] guaranteed to never
    /// appear in an optimal matching when one exists within the
    /// candidates: larger than any possible assignment cost.
    pub fn prohibitive_fill(&self) -> f64 {
        let (lo, hi) = self.min_max();
        let mag = 1.0_f64.max(lo.abs()).max(hi.abs());
        mag * (self.n as f64 + 1.0) * 2.0
    }

    /// Verifies a solve report **relative to this pruned instance**: the
    /// assignment is perfect, uses candidate edges only, the objective
    /// matches, and the duals are feasible on every *stored* entry with
    /// complementary slackness on the matched ones.
    ///
    /// This is the strongest claim a sparse solver can make by itself.
    /// Optimality with respect to the original dense instance is checked
    /// by the repair driver via [`SolveReport::verify`] against the
    /// dense matrix.
    pub fn verify_report(&self, report: &SolveReport, eps: f64) -> Result<(), LsapError> {
        let (lo, hi) = self.min_max();
        let scale = 1.0_f64.max(lo.abs()).max(hi.abs());
        let tol = eps * scale;
        let pairs: Vec<(usize, usize)> = report.assignment.pairs().collect();
        if pairs.len() != self.n {
            return Err(LsapError::NotPerfect {
                row: (0..self.n)
                    .find(|&r| pairs.iter().all(|&(i, _)| i != r))
                    .unwrap_or(0),
            });
        }
        let mut objective = 0.0;
        for &(i, j) in &pairs {
            match self.cost_of(i, j) {
                Some(w) => objective += w,
                None => {
                    return Err(LsapError::InvalidCertificate {
                        reason: format!("matched edge ({i}, {j}) is not a candidate"),
                    })
                }
            }
        }
        if (objective - report.objective).abs() > tol * self.n as f64 {
            return Err(LsapError::InvalidCertificate {
                reason: format!(
                    "claimed objective {} does not match candidate cost {objective}",
                    report.objective
                ),
            });
        }
        let (u, v) = (&report.certificate.u, &report.certificate.v);
        if u.len() != self.n || v.len() != self.n {
            return Err(LsapError::InvalidCertificate {
                reason: "dual vector length mismatch".into(),
            });
        }
        for (i, j, w) in self.entries() {
            if u[i] + v[j] > w + tol {
                return Err(LsapError::InvalidCertificate {
                    reason: format!(
                        "dual infeasible at candidate ({i}, {j}): u+v = {} > cost {w}",
                        u[i] + v[j]
                    ),
                });
            }
        }
        for &(i, j) in &pairs {
            let w = self.cost_of(i, j).expect("checked above");
            if (w - u[i] - v[j]).abs() > tol {
                return Err(LsapError::InvalidCertificate {
                    reason: format!("matched candidate ({i}, {j}) is not tight"),
                });
            }
        }
        Ok(())
    }
}

/// Screens the dense instance against pruned-solve duals: every entry
/// with `u[i] + v[j] > c[i][j] + tol` — exactly the entries whose
/// omission lets the pruned duals climb too high, and therefore the
/// columns to re-admit. The tolerance scales with the matrix magnitude
/// like [`DualCertificate::verify`].
pub fn violated_entries(
    dense: &CostMatrix,
    cert: &DualCertificate,
    eps: f64,
) -> Vec<(usize, usize)> {
    let (lo, hi) = dense.min_max();
    let tol = eps * 1.0_f64.max(lo.abs()).max(hi.abs());
    let mut out = Vec::new();
    for (i, &ui) in cert.u.iter().enumerate().take(dense.rows()) {
        for (j, &vj) in cert.v.iter().enumerate().take(dense.cols()) {
            if ui + vj > dense.get(i, j) + tol {
                out.push((i, j));
            }
        }
    }
    out
}

/// What [`solve_pruned_with_repair`] did to earn its verified answer.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// The final report, verified against the **dense** instance.
    pub report: SolveReport,
    /// Sparse solve attempts (1 = the first prune was already optimal).
    pub rounds: u32,
    /// Entries re-admitted across all repair rounds.
    pub readmitted: usize,
    /// `k` doublings forced by [`LsapError::SparseInfeasible`].
    pub escalations: u32,
    /// Candidates per row of the last sparse attempt.
    pub final_k: usize,
    /// `true` when repair gave up and the answer came from `solve_dense`.
    pub dense_fallback: bool,
}

/// Solves `dense` through a pruned k-candidate engine with certificate
/// repair — the column-generation loop of the tentpole:
///
/// 1. prune to the `k` cheapest columns per row (plus any re-admitted
///    columns) and call `solve_sparse`;
/// 2. an infeasible prune ([`LsapError::SparseInfeasible`]) doubles `k`;
/// 3. a solved prune is checked against the **dense** certificate — on
///    violation the offending columns are re-admitted and the loop
///    repeats;
/// 4. after `max_rounds` sparse attempts the driver falls back to
///    `solve_dense` (never silently: [`RepairReport::dense_fallback`]).
///
/// Any result returned has passed [`SolveReport::verify`] against
/// `dense` at `eps`.
pub fn solve_pruned_with_repair<S, D>(
    dense: &CostMatrix,
    k: usize,
    max_rounds: u32,
    eps: f64,
    mut solve_sparse: S,
    mut solve_dense: D,
) -> Result<RepairReport, LsapError>
where
    S: FnMut(&SparseCost) -> Result<SolveReport, LsapError>,
    D: FnMut(&CostMatrix) -> Result<SolveReport, LsapError>,
{
    if !dense.is_square() {
        return Err(LsapError::NotSquare {
            rows: dense.rows(),
            cols: dense.cols(),
        });
    }
    let n = dense.n();
    let mut k_base = k.clamp(1, n);
    let mut extra: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    let mut rounds = 0;
    let mut readmitted = 0;
    let mut escalations = 0;
    let mut final_k = k_base;
    while rounds < max_rounds {
        let sc = SparseCost::from_dense_topk_extra(dense, k_base, &extra)?;
        final_k = sc.k();
        rounds += 1;
        match solve_sparse(&sc) {
            Ok(report) => {
                if report.verify(dense, eps).is_ok() {
                    return Ok(RepairReport {
                        report,
                        rounds,
                        readmitted,
                        escalations,
                        final_k,
                        dense_fallback: false,
                    });
                }
                let viol = violated_entries(dense, &report.certificate, eps);
                if viol.is_empty() {
                    // Certificate failed for a reason column re-admission
                    // cannot fix (e.g. fault corruption); fall back.
                    break;
                }
                for (i, j) in viol {
                    if extra[i].insert(j) {
                        readmitted += 1;
                    }
                }
            }
            Err(LsapError::SparseInfeasible { .. }) => {
                escalations += 1;
                k_base = (k_base * 2).min(n);
            }
            Err(e) => return Err(e),
        }
    }
    let report = solve_dense(dense)?;
    report.verify(dense, eps)?;
    Ok(RepairReport {
        report,
        rounds,
        readmitted,
        escalations,
        final_k,
        dense_fallback: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Assignment, SolverStats};

    fn dense(rows: &[&[f64]]) -> CostMatrix {
        CostMatrix::from_rows(rows).unwrap()
    }

    /// Classic shortest-augmenting-path Hungarian (1-indexed potential
    /// form). Returns `(row_to_col, u, v)` with `u[i] + v[j] <= c[i][j]`
    /// everywhere and equality on matched edges — a valid certificate.
    fn hungarian(m: &CostMatrix) -> (Vec<usize>, Vec<f64>, Vec<f64>) {
        let n = m.n();
        let inf = f64::INFINITY;
        let mut u = vec![0.0; n + 1];
        let mut v = vec![0.0; n + 1];
        let mut p = vec![0usize; n + 1];
        let mut way = vec![0usize; n + 1];
        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            let mut minv = vec![inf; n + 1];
            let mut used = vec![false; n + 1];
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = inf;
                let mut j1 = 0usize;
                for j in 1..=n {
                    if !used[j] {
                        let cur = m.get(i0 - 1, j - 1) - u[i0] - v[j];
                        if cur < minv[j] {
                            minv[j] = cur;
                            way[j] = j0;
                        }
                        if minv[j] < delta {
                            delta = minv[j];
                            j1 = j;
                        }
                    }
                }
                for j in 0..=n {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
        let mut row_to_col = vec![0usize; n];
        for j in 1..=n {
            row_to_col[p[j] - 1] = j - 1;
        }
        (row_to_col, u[1..].to_vec(), v[1..].to_vec())
    }

    /// Reference sparse solver for the driver tests: expand with a
    /// prohibitive fill, solve exactly, and report infeasible when the
    /// optimum is forced onto a filled (non-candidate) edge.
    fn brute_sparse(sc: &SparseCost) -> Result<SolveReport, LsapError> {
        let fill = sc.prohibitive_fill();
        let m = sc.to_dense(fill)?;
        let (perm, u, v) = hungarian(&m);
        if perm
            .iter()
            .enumerate()
            .any(|(i, &j)| sc.cost_of(i, j).is_none())
        {
            return Err(LsapError::SparseInfeasible { k: sc.k() });
        }
        let objective = perm.iter().enumerate().map(|(i, &j)| m.get(i, j)).sum();
        Ok(SolveReport {
            assignment: Assignment::from_permutation(perm),
            objective,
            certificate: DualCertificate::new(u, v),
            stats: SolverStats::default(),
        })
    }

    fn brute_dense(m: &CostMatrix) -> Result<SolveReport, LsapError> {
        let (perm, u, v) = hungarian(m);
        let objective = perm.iter().enumerate().map(|(i, &j)| m.get(i, j)).sum();
        Ok(SolveReport {
            assignment: Assignment::from_permutation(perm),
            objective,
            certificate: DualCertificate::new(u, v),
            stats: SolverStats::default(),
        })
    }

    #[test]
    fn topk_prune_keeps_the_k_cheapest_sorted_by_column() {
        let m = dense(&[&[5.0, 1.0, 3.0], &[2.0, 2.0, 9.0], &[7.0, 8.0, 0.0]]);
        let sc = SparseCost::from_dense_topk(&m, 2).unwrap();
        assert_eq!(sc.row_cols(0), &[1, 2]);
        assert_eq!(sc.row_costs(0), &[1.0, 3.0]);
        // Tie in row 1 breaks toward the lower column id.
        assert_eq!(sc.row_cols(1), &[0, 1]);
        assert_eq!(sc.row_cols(2), &[0, 2]);
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            SparseCost::new(2, 1, vec![0, 5], vec![1.0, 1.0]),
            Err(LsapError::IndexOutOfBounds { index: 5, bound: 2 })
        ));
        assert!(matches!(
            SparseCost::new(2, 1, vec![0, 1], vec![1.0, f64::NAN]),
            Err(LsapError::NanCost { row: 1, col: 1 })
        ));
        assert!(matches!(
            SparseCost::new(2, 3, vec![0; 6], vec![0.0; 6]),
            Err(LsapError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn to_dense_round_trips_candidates() {
        let m = dense(&[&[5.0, 1.0], &[2.0, 9.0]]);
        let sc = SparseCost::from_dense_topk(&m, 1).unwrap();
        let d = sc.to_dense(100.0).unwrap();
        assert_eq!(d.get(0, 1), 1.0);
        assert_eq!(d.get(0, 0), 100.0);
        assert_eq!(d.get(1, 0), 2.0);
    }

    #[test]
    fn repair_not_needed_when_prune_keeps_the_optimum() {
        // Diagonal dominance: top-1 pruning already contains the optimum.
        let m = dense(&[&[0.0, 9.0, 9.0], &[9.0, 0.0, 9.0], &[9.0, 9.0, 0.0]]);
        let out = solve_pruned_with_repair(&m, 1, 4, 1e-9, brute_sparse, brute_dense).unwrap();
        assert_eq!(out.rounds, 1);
        assert_eq!(out.readmitted, 0);
        assert!(!out.dense_fallback);
        assert_eq!(out.report.objective, 0.0);
    }

    #[test]
    fn repair_readmits_a_pruned_optimal_edge() {
        // k=2 candidates: r0 {0,1}, r1 {0,2}, r2 {1,0}. The pruned
        // optimum costs 99 (r0->0, r1->2, r2->1); the dense optimum uses
        // r0's pruned column 2 and costs 2. The dual screen must pull
        // the cut column back in and land on 2.
        let m = dense(&[&[0.0, 1.0, 2.0], &[0.0, 100.0, 99.0], &[98.0, 0.0, 100.0]]);
        let out = solve_pruned_with_repair(&m, 2, 6, 1e-9, brute_sparse, brute_dense).unwrap();
        assert!(out.rounds > 1, "repair must actually trigger");
        assert!(out.readmitted > 0);
        assert!(!out.dense_fallback);
        assert_eq!(out.report.objective, 2.0);
        out.report.verify(&m, 1e-9).unwrap();
    }

    #[test]
    fn infeasible_prune_escalates_k() {
        // Rows 0..2 all prefer columns {0, 1} at k=2: Hall violation in
        // the pruned instance, fixed by doubling k.
        let m = dense(&[
            &[1.0, 1.0, 50.0, 60.0],
            &[1.0, 1.0, 60.0, 50.0],
            &[1.0, 1.0, 70.0, 70.0],
            &[30.0, 40.0, 1.0, 1.0],
        ]);
        let out = solve_pruned_with_repair(&m, 2, 6, 1e-9, brute_sparse, brute_dense).unwrap();
        assert!(out.escalations >= 1, "escalation must trigger: {out:?}");
        assert!(!out.dense_fallback);
        out.report.verify(&m, 1e-9).unwrap();
    }

    #[test]
    fn exhausted_rounds_fall_back_to_dense() {
        let m = dense(&[&[0.0, 1.0, 2.0], &[0.0, 100.0, 99.0], &[98.0, 0.0, 100.0]]);
        // Zero sparse rounds: straight to the dense fallback.
        let out = solve_pruned_with_repair(
            &m,
            2,
            0,
            1e-9,
            |_| unreachable!("no sparse rounds allowed"),
            brute_dense,
        )
        .unwrap();
        assert!(out.dense_fallback);
        assert_eq!(out.report.objective, 2.0);
    }

    #[test]
    fn sparse_verify_rejects_non_candidate_match() {
        let m = dense(&[&[0.0, 9.0], &[9.0, 0.0]]);
        let sc = SparseCost::from_dense_topk(&m, 1).unwrap();
        let mut rep = brute_sparse(&sc).unwrap();
        sc.verify_report(&rep, 1e-9).unwrap();
        // Swap the matching onto pruned edges.
        rep.assignment = Assignment::from_permutation(vec![1, 0]);
        assert!(matches!(
            sc.verify_report(&rep, 1e-9),
            Err(LsapError::InvalidCertificate { .. })
        ));
    }

    #[test]
    fn violated_entries_finds_the_cut_edge() {
        // Dual u from a pruned solve that overpays row 0.
        let m = dense(&[&[0.0, 1.0], &[0.0, 5.0]]);
        let cert = DualCertificate::new(vec![2.0, 0.0], vec![0.0, 0.0]);
        let viol = violated_entries(&m, &cert, 1e-9);
        assert_eq!(viol, vec![(0, 0), (0, 1)]);
    }
}
