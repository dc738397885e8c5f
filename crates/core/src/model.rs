//! Response-time models: from a work vector to a sequential execution time.
//!
//! Section 4.1 constrains the sequential execution time of a clone with
//! work vector `W` by
//!
//! ```text
//! max_i W[i]  ≤  T_seq(W)  ≤  Σ_i W[i]
//! ```
//!
//! (perfect overlap of resource usage at one extreme, zero overlap at the
//! other — Figure 2). The experimental assumption EA2 instantiates this as
//! a convex combination controlled by a system-wide overlap parameter
//! `ε ∈ [0, 1]`:
//!
//! ```text
//! T(W) = ε · max_i W[i] + (1 − ε) · Σ_i W[i]
//! ```

use crate::vector::WorkVector;

/// A model mapping a clone's work vector to its sequential execution time
/// `T_seq(W)` when run in isolation on one site.
///
/// Implementations must satisfy the Section 4.1 sandwich
/// `l(W) ≤ t_seq(W) ≤ W.total()` and be monotone: componentwise-larger
/// vectors may not get smaller times. Both invariants are property-tested.
/// [`crate::partition::t_par`] relies on monotonicity to evaluate only the
/// coordinator clone, which dominates its siblings componentwise.
pub trait ResponseModel {
    /// Sequential execution time of a clone with requirements `w`.
    fn t_seq(&self, w: &WorkVector) -> f64;
}

/// EA2's convex overlap model: `T(W) = ε·max + (1−ε)·sum`.
///
/// `ε = 1` is perfect overlap (`T = max`), `ε = 0` is zero overlap
/// (`T = sum`). Small `ε` means resources idle while others work — exactly
/// the situations where multi-dimensional scheduling pays off (Figure 5(b)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverlapModel {
    epsilon: f64,
}

impl OverlapModel {
    /// Creates the model for overlap parameter `ε ∈ [0, 1]`.
    ///
    /// # Errors
    /// Returns a message if `ε` is outside `[0, 1]` or not finite.
    pub fn new(epsilon: f64) -> Result<Self, String> {
        if !(epsilon.is_finite() && (0.0..=1.0).contains(&epsilon)) {
            return Err(format!(
                "overlap parameter must be in [0, 1], got {epsilon}"
            ));
        }
        Ok(OverlapModel { epsilon })
    }

    /// Perfect overlap: `T(W) = l(W)`.
    pub fn perfect() -> Self {
        OverlapModel { epsilon: 1.0 }
    }

    /// Zero overlap: `T(W) = Σ_i W[i]`.
    pub fn none() -> Self {
        OverlapModel { epsilon: 0.0 }
    }

    /// The overlap parameter `ε`.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

impl ResponseModel for OverlapModel {
    #[inline]
    fn t_seq(&self, w: &WorkVector) -> f64 {
        self.epsilon * w.length() + (1.0 - self.epsilon) * w.total()
    }
}

impl<M: ResponseModel + ?Sized> ResponseModel for &M {
    fn t_seq(&self, w: &WorkVector) -> f64 {
        (**self).t_seq(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(components: &[f64]) -> WorkVector {
        WorkVector::from_slice(components)
    }

    #[test]
    fn epsilon_bounds_enforced() {
        assert!(OverlapModel::new(-0.1).is_err());
        assert!(OverlapModel::new(1.1).is_err());
        assert!(OverlapModel::new(f64::NAN).is_err());
        assert!(OverlapModel::new(0.0).is_ok());
        assert!(OverlapModel::new(1.0).is_ok());
    }

    #[test]
    fn extremes_match_paper_figure_2() {
        let v = w(&[10.0, 15.0, 5.0]);
        assert_eq!(OverlapModel::perfect().t_seq(&v), 15.0);
        assert_eq!(OverlapModel::none().t_seq(&v), 30.0);
    }

    #[test]
    fn convex_combination() {
        let v = w(&[10.0, 30.0]);
        let m = OverlapModel::new(0.5).unwrap();
        // 0.5·30 + 0.5·40 = 35.
        assert!((m.t_seq(&v) - 35.0).abs() < 1e-12);
    }

    #[test]
    fn sandwich_holds_for_all_epsilon() {
        let v = w(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        for i in 0..=10 {
            let eps = i as f64 / 10.0;
            let t = OverlapModel::new(eps).unwrap().t_seq(&v);
            assert!(t >= v.length() - 1e-12, "eps={eps}: {t} < max");
            assert!(t <= v.total() + 1e-12, "eps={eps}: {t} > sum");
        }
    }

    #[test]
    fn paper_example_section_5_2_2() {
        // (T1, W1) = (22, [10, 15]) under some overlap; reproduce the T
        // values with the matching ε. T = ε·15 + (1−ε)·25 = 22 → ε = 0.3.
        let m = OverlapModel::new(0.3).unwrap();
        assert!((m.t_seq(&w(&[10.0, 15.0])) - 22.0).abs() < 1e-12);
        // (T2, W2) = (10, [10, 5]): 0.3·10 + 0.7·15 = 13.5 ≠ 10 — the paper
        // does not force one ε across its illustrative pairs; just verify
        // the sandwich for ours.
        let t2 = m.t_seq(&w(&[10.0, 5.0]));
        assert!((10.0..=15.0).contains(&t2));
    }

    #[test]
    fn zero_vector_zero_time() {
        let m = OverlapModel::new(0.4).unwrap();
        assert_eq!(m.t_seq(&WorkVector::zeros(3)), 0.0);
    }

    #[test]
    fn reference_impl_delegates() {
        let m = OverlapModel::new(0.5).unwrap();
        let v = w(&[2.0, 4.0]);
        let by_ref: &dyn ResponseModel = &m;
        assert_eq!(by_ref.t_seq(&v), m.t_seq(&v));
    }
}

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_vector(max_dim: usize) -> impl Strategy<Value = WorkVector> {
        proptest::collection::vec(0.0f64..1e6, 1..=max_dim).prop_map(WorkVector::new)
    }

    proptest! {
        #[test]
        fn overlap_model_sandwich(v in arb_vector(6), eps in 0.0f64..=1.0) {
            let m = OverlapModel::new(eps).unwrap();
            let t = m.t_seq(&v);
            prop_assert!(t >= v.length() - 1e-9 * v.total().max(1.0));
            prop_assert!(t <= v.total() + 1e-9 * v.total().max(1.0));
        }

        #[test]
        fn overlap_model_monotone(
            v in arb_vector(6),
            extra in 0.0f64..1e5,
            eps in 0.0f64..=1.0,
        ) {
            let m = OverlapModel::new(eps).unwrap();
            let mut bigger = v.clone();
            bigger.add_at(0, extra);
            prop_assert!(m.t_seq(&bigger) + 1e-9 >= m.t_seq(&v));
        }

        #[test]
        fn overlap_model_scales_linearly(v in arb_vector(6), k in 0.0f64..100.0, eps in 0.0f64..=1.0) {
            let m = OverlapModel::new(eps).unwrap();
            let lhs = m.t_seq(&v.scaled(k));
            let rhs = k * m.t_seq(&v);
            prop_assert!((lhs - rhs).abs() <= 1e-6 * rhs.abs().max(1.0));
        }
    }
}
