//! Property tests for the portfolio cost models: predicted cost must be
//! monotone in `n` and in batch size — for the committed calibrated
//! table *and* for any coefficients satisfying the model contract — and
//! ranking must agree with exhaustive argmin. A non-monotone model would
//! make deadline-based rung skipping unsound (a bigger instance predicted
//! cheaper than a smaller one) and the regret gate unstable.

use lsap::portfolio::{
    EngineClass, EngineCostModel, InstanceShape, PortfolioTable, PowerLaw, Support, K_REF,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn calibrated_models_are_monotone_in_n(
        n1 in 2usize..1000,
        dn in 1usize..1000,
        k in 1.0f64..500.0,
        batch in 1usize..32,
        chips in 1usize..8,
    ) {
        let n2 = n1 + dn;
        for m in &PortfolioTable::calibrated().models {
            let c1 = m.batch_cost(InstanceShape { n: n1, k, batch, chips, candidates: None });
            let c2 = m.batch_cost(InstanceShape { n: n2, k, batch, chips, candidates: None });
            prop_assert!(
                c2 >= c1,
                "{}: cost({n2}) = {c2} < cost({n1}) = {c1}",
                m.engine
            );
        }
    }

    #[test]
    fn calibrated_models_are_monotone_in_batch(
        n in 2usize..1000,
        k in 1.0f64..500.0,
        b1 in 1usize..64,
        db in 1usize..64,
        chips in 1usize..8,
    ) {
        let b2 = b1 + db;
        for m in &PortfolioTable::calibrated().models {
            let s1 = InstanceShape { n, k, batch: b1, chips, candidates: None };
            let s2 = InstanceShape { n, k, batch: b2, chips, candidates: None };
            // Total batch cost grows with the batch...
            prop_assert!(m.batch_cost(s2) >= m.batch_cost(s1), "{}", m.engine);
            // ...while the amortized per-instance cost never grows (the
            // one-time overhead spreads thinner).
            prop_assert!(
                m.cost_per_instance(s2) <= m.cost_per_instance(s1) + 1e-9,
                "{}: amortized cost grew with batch",
                m.engine
            );
        }
    }

    #[test]
    fn arbitrary_valid_models_are_monotone(
        coeff in 1e-9f64..1e3,
        exponent in 0.0f64..4.0,
        density_exponent in 0.0f64..2.0,
        ov_coeff in 0.0f64..1e7,
        ov_exponent in 0.0f64..2.0,
        m4 in 1.0f64..4.0,
        n1 in 2usize..2000,
        dn in 1usize..2000,
        b1 in 1usize..64,
        db in 1usize..64,
        k in 1.0f64..500.0,
        chips in 1usize..8,
    ) {
        let m = EngineCostModel {
            engine: "arb".into(),
            clock_hz: 1.0,
            solve: PowerLaw { coeff, exponent },
            density_exponent,
            chip_mult: vec![(1, 1.0), (4, m4)],
            overhead: PowerLaw { coeff: ov_coeff, exponent: ov_exponent },
            support: Support::Any,
            class: EngineClass::Dense,
            candidate_exponent: 0.0,
        };
        let base = InstanceShape { n: n1, k, batch: b1, chips, candidates: None };
        let bigger_n = InstanceShape { n: n1 + dn, ..base };
        let bigger_b = InstanceShape { batch: b1 + db, ..base };
        prop_assert!(m.batch_cost(bigger_n) >= m.batch_cost(base));
        prop_assert!(m.batch_cost(bigger_b) >= m.batch_cost(base));
    }

    #[test]
    fn pick_agrees_with_exhaustive_argmin(
        n in 2usize..1024,
        k in 1.0f64..200.0,
        batch in 1usize..16,
        chips in 1usize..8,
    ) {
        let table = PortfolioTable::calibrated();
        let shape = InstanceShape { n, k, batch, chips, candidates: None };
        let picked = table.pick(shape).expect("some engine supports every n");
        let best = table
            .models
            .iter()
            .filter(|m| m.supports_shape(shape))
            .map(|m| m.seconds_per_instance(shape))
            .fold(f64::INFINITY, f64::min);
        prop_assert_eq!(picked.seconds_per_instance(shape), best);
        // And the ranking's head is exactly the pick.
        let rank = table.rank(shape);
        prop_assert!(rank[0].supported);
        prop_assert_eq!(&rank[0].engine, &picked.engine);
    }

    #[test]
    fn density_multiplier_is_monotone_in_k(
        n in 2usize..512,
        k1 in 1.0f64..400.0,
        dk in 1.0f64..400.0,
    ) {
        for m in &PortfolioTable::calibrated().models {
            let c1 = m.cost_per_instance(InstanceShape::single(n, k1));
            let c2 = m.cost_per_instance(InstanceShape::single(n, k1 + dk));
            prop_assert!(c2 >= c1, "{}: cost must not fall as k grows", m.engine);
        }
    }
}

#[test]
fn k_ref_is_the_density_fixed_point() {
    // At k = K_REF the density multiplier is exactly 1 for every model,
    // so the fitted solve law is directly the k=10 sweep.
    for m in &PortfolioTable::calibrated().models {
        let with = m.cost_per_instance(InstanceShape::single(64, K_REF));
        let law = m.solve.eval(64.0) * m.chip_multiplier(1) + m.overhead.eval(64.0);
        assert!(
            (with - law).abs() <= 1e-9 * law.abs().max(1.0),
            "{}: density multiplier not normalized at K_REF",
            m.engine
        );
    }
}
