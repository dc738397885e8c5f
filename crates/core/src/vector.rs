//! d-dimensional work vectors.
//!
//! A *work vector* `W` describes the resource requirements of an operator
//! (or operator clone) on a site with `d` preemptable resources: component
//! `W[i]` is the effective busy time the operator induces on resource `i`
//! (Section 4.1 of the paper). Components are non-negative finite `f64`
//! seconds.
//!
//! Two notions of "length" from Section 5.1:
//!
//! * `l(W)` — the maximum component of a single vector,
//! * `l(S)` — the maximum component of the vector sum of a set `S`.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// Dimensionalities up to this bound are stored inline (no heap
/// allocation). The paper's experiments use `d = 3` (CPU, disk, net);
/// one spare slot covers the 4-dimensional memory extension without
/// spilling.
const INLINE_DIM: usize = 4;

/// Storage for the components: a fixed inline array for the common small
/// dimensionalities, a heap vector for the rest. The representation is
/// canonical — constructors pick `Inline` exactly when `d <= INLINE_DIM`
/// — so equality can compare component slices without normalization.
///
/// Invariant: the unused lanes `data[len..]` of an `Inline` vector are
/// always `0.0`. Combined with the non-negativity of components, this
/// lets the hot kernels (`length`, `total`, `accumulate`, `remove`,
/// `max_with`) operate on all `INLINE_DIM` lanes unconditionally — a
/// fixed-width, branch-free loop the compiler can unroll and vectorize —
/// because zero lanes are absorbing for `+`, `max`, and `*`.
#[derive(Clone)]
enum Repr {
    /// `d <= INLINE_DIM`: components live in `data[..len]`; `data[len..]`
    /// stays all-zero (see the invariant above).
    Inline { len: u8, data: [f64; INLINE_DIM] },
    /// `d > INLINE_DIM`: heap-allocated spill.
    Spill(Vec<f64>),
}

/// A non-negative `d`-dimensional work vector (seconds of busy time per
/// resource).
///
/// The dimensionality is fixed at construction; all arithmetic panics on a
/// dimensionality mismatch (a programming error, not a data error).
///
/// Vectors of dimensionality `≤ 4` are stored inline — creating, cloning,
/// and accumulating them never touches the allocator, which keeps the
/// scheduling kernels (`pack_clones`, makespan evaluation, the malleable
/// GF sweep, the fluid simulator) allocation-free on the paper's
/// 3-resource workloads.
#[derive(Clone)]
pub struct WorkVector {
    repr: Repr,
}

impl PartialEq for WorkVector {
    fn eq(&self, other: &Self) -> bool {
        self.components() == other.components()
    }
}

impl WorkVector {
    /// Creates a zero vector of dimensionality `d`.
    ///
    /// # Panics
    /// Panics if `d == 0`.
    pub fn zeros(d: usize) -> Self {
        assert!(d > 0, "work vectors must have at least one dimension");
        WorkVector {
            repr: if d <= INLINE_DIM {
                Repr::Inline {
                    len: d as u8,
                    data: [0.0; INLINE_DIM],
                }
            } else {
                Repr::Spill(vec![0.0; d])
            },
        }
    }

    /// Creates a vector from raw components.
    ///
    /// # Panics
    /// Panics if `components` is empty or any component is negative, NaN,
    /// or infinite.
    pub fn new(components: Vec<f64>) -> Self {
        Self::from_slice(&components)
    }

    /// Creates a vector from a slice.
    ///
    /// # Panics
    /// Panics if `components` is empty or any component is negative, NaN,
    /// or infinite.
    pub fn from_slice(components: &[f64]) -> Self {
        assert!(
            !components.is_empty(),
            "work vectors must have at least one dimension"
        );
        for (i, &c) in components.iter().enumerate() {
            assert!(
                c.is_finite() && c >= 0.0,
                "work vector component {i} must be finite and non-negative, got {c}"
            );
        }
        WorkVector {
            repr: if components.len() <= INLINE_DIM {
                let mut data = [0.0; INLINE_DIM];
                data[..components.len()].copy_from_slice(components);
                Repr::Inline {
                    len: components.len() as u8,
                    data,
                }
            } else {
                Repr::Spill(components.to_vec())
            },
        }
    }

    /// Creates a vector with `value` placed at `dim` and zeros elsewhere.
    pub fn unit(d: usize, dim: usize, value: f64) -> Self {
        let mut v = Self::zeros(d);
        v[dim] = value;
        v
    }

    /// Dimensionality `d` of the vector.
    #[inline]
    pub fn dim(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spill(v) => v.len(),
        }
    }

    /// The components as a slice.
    #[inline]
    pub fn components(&self) -> &[f64] {
        match &self.repr {
            Repr::Inline { len, data } => &data[..*len as usize],
            Repr::Spill(v) => v,
        }
    }

    /// The components as a mutable slice (dimensionality is fixed).
    #[inline]
    fn components_mut(&mut self) -> &mut [f64] {
        match &mut self.repr {
            Repr::Inline { len, data } => &mut data[..*len as usize],
            Repr::Spill(v) => v,
        }
    }

    /// Resets every component to zero in place, keeping the allocation
    /// (used by scratch buffers that are reused across scheduling phases).
    #[inline]
    pub fn set_zero(&mut self) {
        match &mut self.repr {
            // All lanes: unused ones are zero already.
            Repr::Inline { data, .. } => *data = [0.0; INLINE_DIM],
            Repr::Spill(v) => v.fill(0.0),
        }
    }

    /// True iff the components are stored inline (no heap allocation).
    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// True iff the unused inline lanes are all zero (the invariant the
    /// fixed-width kernel fast paths rely on); vacuously true for spills.
    #[cfg(test)]
    fn inline_padding_is_zero(&self) -> bool {
        match &self.repr {
            Repr::Inline { len, data } => data[*len as usize..].iter().all(|&c| c == 0.0),
            Repr::Spill(_) => true,
        }
    }

    /// `l(W)`: the maximum component (Section 5.1).
    #[inline]
    pub fn length(&self) -> f64 {
        match &self.repr {
            // All lanes: unused ones are 0 and components are ≥ 0, so they
            // never win the max; the fixed width keeps the loop branch-free.
            Repr::Inline { data, .. } => data.iter().copied().fold(0.0, f64::max),
            Repr::Spill(v) => v.iter().copied().fold(0.0, f64::max),
        }
    }

    /// The total work `Σ_i W[i]` — the *processing area* when the vector
    /// holds pure processing costs (Section 4.2).
    #[inline]
    pub fn total(&self) -> f64 {
        match &self.repr {
            // All lanes: zeros don't contribute to the sum.
            Repr::Inline { data, .. } => data.iter().sum(),
            Repr::Spill(v) => v.iter().sum(),
        }
    }

    /// True iff every component is zero.
    pub fn is_zero(&self) -> bool {
        self.components().iter().all(|&c| c == 0.0)
    }

    /// Componentwise `≤` (the `≤_d` relation of Section 7, footnote 5).
    pub fn le_componentwise(&self, other: &WorkVector) -> bool {
        self.assert_same_dim(other);
        self.components()
            .iter()
            .zip(other.components())
            .all(|(a, b)| a <= b)
    }

    /// Returns a copy scaled by `factor ≥ 0`.
    ///
    /// # Panics
    /// Panics if `factor` is negative or non-finite.
    pub fn scaled(&self, factor: f64) -> WorkVector {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        let mut out = self.clone();
        match &mut out.repr {
            // All lanes: 0 · factor = 0 keeps the unused-lane invariant.
            Repr::Inline { data, .. } => {
                for c in data {
                    *c *= factor;
                }
            }
            Repr::Spill(v) => {
                for c in v {
                    *c *= factor;
                }
            }
        }
        out
    }

    /// The full-speed demand rates `W[i] / duration` of a clone that runs
    /// for `duration`: each component is the one IEEE division
    /// `w / duration`, bit-identical to dividing the components one by
    /// one. Inline vectors stay inline (no allocation) and their padding
    /// lanes stay `0.0`.
    ///
    /// # Panics
    /// Panics unless `duration > 0`.
    #[inline]
    pub fn rates(&self, duration: f64) -> WorkVector {
        assert!(
            duration > 0.0,
            "demand rates need a positive duration, got {duration}"
        );
        let mut out = self.clone();
        match &mut out.repr {
            // All lanes: 0 / duration = 0 keeps the unused-lane invariant.
            Repr::Inline { data, .. } => {
                for c in data {
                    *c /= duration;
                }
            }
            Repr::Spill(v) => {
                for c in v {
                    *c /= duration;
                }
            }
        }
        out
    }

    /// Adds `value` to component `dim` in place.
    pub fn add_at(&mut self, dim: usize, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "added work must be finite and non-negative, got {value}"
        );
        self.components_mut()[dim] += value;
    }

    /// Adds `other` into `self` (used to accumulate site loads).
    #[inline]
    pub fn accumulate(&mut self, other: &WorkVector) {
        self.assert_same_dim(other);
        if let (Repr::Inline { data, .. }, Repr::Inline { data: o, .. }) =
            (&mut self.repr, &other.repr)
        {
            // All lanes: 0 + 0 = 0 keeps the unused-lane invariant.
            for i in 0..INLINE_DIM {
                data[i] += o[i];
            }
            return;
        }
        for (a, b) in self.components_mut().iter_mut().zip(other.components()) {
            *a += *b;
        }
    }

    /// Removes `other` from `self`, clamping tiny negative residue from
    /// floating-point cancellation to zero.
    #[inline]
    pub fn remove(&mut self, other: &WorkVector) {
        self.assert_same_dim(other);
        if let (Repr::Inline { data, .. }, Repr::Inline { data: o, .. }) =
            (&mut self.repr, &other.repr)
        {
            // All lanes: (0 - 0).max(0) = 0 keeps the unused-lane invariant.
            for i in 0..INLINE_DIM {
                data[i] = (data[i] - o[i]).max(0.0);
            }
            return;
        }
        for (a, b) in self.components_mut().iter_mut().zip(other.components()) {
            *a = (*a - *b).max(0.0);
        }
    }

    /// Componentwise maximum of two vectors.
    #[inline]
    pub fn max_with(&self, other: &WorkVector) -> WorkVector {
        self.assert_same_dim(other);
        let mut out = self.clone();
        if let (Repr::Inline { data, .. }, Repr::Inline { data: o, .. }) =
            (&mut out.repr, &other.repr)
        {
            // All lanes: max(0, 0) = 0 keeps the unused-lane invariant.
            for i in 0..INLINE_DIM {
                data[i] = data[i].max(o[i]);
            }
            return out;
        }
        for (a, b) in out.components_mut().iter_mut().zip(other.components()) {
            *a = a.max(*b);
        }
        out
    }

    /// Sum of a set of vectors; `l(S)` is `vector_sum(S).length()`.
    ///
    /// Returns `None` for an empty iterator (dimensionality unknown).
    pub fn vector_sum<'a, I>(vectors: I) -> Option<WorkVector>
    where
        I: IntoIterator<Item = &'a WorkVector>,
    {
        let mut it = vectors.into_iter();
        let first = it.next()?;
        let mut acc = first.clone();
        for v in it {
            acc.accumulate(v);
        }
        Some(acc)
    }

    /// `l(S)` over a set of vectors: the maximum component of the vector
    /// sum (Section 5.1). Zero for an empty set.
    pub fn set_length<'a, I>(vectors: I) -> f64
    where
        I: IntoIterator<Item = &'a WorkVector>,
    {
        Self::vector_sum(vectors).map_or(0.0, |v| v.length())
    }

    #[inline]
    fn assert_same_dim(&self, other: &WorkVector) {
        assert_eq!(
            self.dim(),
            other.dim(),
            "work vector dimensionality mismatch: {} vs {}",
            self.dim(),
            other.dim()
        );
    }

    /// Approximate equality with absolute tolerance `eps`, for tests and
    /// cross-checking analytic identities.
    pub fn approx_eq(&self, other: &WorkVector, eps: f64) -> bool {
        self.dim() == other.dim()
            && self
                .components()
                .iter()
                .zip(other.components())
                .all(|(a, b)| (a - b).abs() <= eps)
    }
}

impl fmt::Debug for WorkVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W[")?;
        for (i, c) in self.components().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.6}")?;
        }
        write!(f, "]")
    }
}

impl Index<usize> for WorkVector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.components()[i]
    }
}

impl IndexMut<usize> for WorkVector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.components_mut()[i]
    }
}

impl Add<&WorkVector> for &WorkVector {
    type Output = WorkVector;
    fn add(self, rhs: &WorkVector) -> WorkVector {
        let mut out = self.clone();
        out.accumulate(rhs);
        out
    }
}

impl AddAssign<&WorkVector> for WorkVector {
    fn add_assign(&mut self, rhs: &WorkVector) {
        self.accumulate(rhs);
    }
}

impl Sub<&WorkVector> for &WorkVector {
    type Output = WorkVector;
    fn sub(self, rhs: &WorkVector) -> WorkVector {
        let mut out = self.clone();
        out.remove(rhs);
        out
    }
}

impl Mul<f64> for &WorkVector {
    type Output = WorkVector;
    fn mul(self, rhs: f64) -> WorkVector {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_requested_dim_and_zero_length() {
        let v = WorkVector::zeros(3);
        assert_eq!(v.dim(), 3);
        assert_eq!(v.length(), 0.0);
        assert_eq!(v.total(), 0.0);
        assert!(v.is_zero());
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dim_rejected() {
        let _ = WorkVector::zeros(0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_component_rejected() {
        let _ = WorkVector::new(vec![1.0, -0.5]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_component_rejected() {
        let _ = WorkVector::new(vec![f64::NAN]);
    }

    #[test]
    fn length_is_max_component() {
        let v = WorkVector::from_slice(&[1.0, 5.0, 3.0]);
        assert_eq!(v.length(), 5.0);
        assert_eq!(v.total(), 9.0);
    }

    #[test]
    fn unit_places_value() {
        let v = WorkVector::unit(3, 1, 2.5);
        assert_eq!(v.components(), &[0.0, 2.5, 0.0]);
    }

    #[test]
    fn set_length_is_max_of_sum_not_sum_of_max() {
        // Paper's Section 5.2.2 example: W1 = [10, 15], W2 = [10, 5].
        let w1 = WorkVector::from_slice(&[10.0, 15.0]);
        let w2 = WorkVector::from_slice(&[10.0, 5.0]);
        assert_eq!(WorkVector::set_length([&w1, &w2]), 20.0);
        // W1 = [10, 15], W3 = [5, 10] congests the second resource.
        let w3 = WorkVector::from_slice(&[5.0, 10.0]);
        assert_eq!(WorkVector::set_length([&w1, &w3]), 25.0);
    }

    #[test]
    fn set_length_empty_is_zero() {
        assert_eq!(WorkVector::set_length(std::iter::empty()), 0.0);
    }

    #[test]
    fn scaled_multiplies_all_components() {
        let v = WorkVector::from_slice(&[2.0, 4.0]).scaled(0.5);
        assert_eq!(v.components(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn negative_scale_rejected() {
        let _ = WorkVector::from_slice(&[1.0]).scaled(-1.0);
    }

    #[test]
    fn le_componentwise_matches_definition() {
        let a = WorkVector::from_slice(&[1.0, 2.0]);
        let b = WorkVector::from_slice(&[1.0, 3.0]);
        assert!(a.le_componentwise(&b));
        assert!(!b.le_componentwise(&a));
        assert!(a.le_componentwise(&a));
    }

    #[test]
    fn remove_clamps_negative_residue() {
        let mut a = WorkVector::from_slice(&[1.0]);
        let b = WorkVector::from_slice(&[1.0 + 1e-12]);
        a.remove(&b);
        assert_eq!(a[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn mismatched_dims_panic() {
        let mut a = WorkVector::zeros(2);
        a.accumulate(&WorkVector::zeros(3));
    }

    #[test]
    fn operators_work() {
        let a = WorkVector::from_slice(&[1.0, 2.0]);
        let b = WorkVector::from_slice(&[3.0, 4.0]);
        assert_eq!((&a + &b).components(), &[4.0, 6.0]);
        assert_eq!((&b - &a).components(), &[2.0, 2.0]);
        assert_eq!((&a * 2.0).components(), &[2.0, 4.0]);
        assert_eq!(a.max_with(&b).components(), &[3.0, 4.0]);
    }

    #[test]
    fn representation_is_inline_iff_small() {
        for d in 1..=8usize {
            assert_eq!(WorkVector::zeros(d).is_inline(), d <= INLINE_DIM);
            assert_eq!(
                WorkVector::from_slice(&vec![1.0; d]).is_inline(),
                d <= INLINE_DIM
            );
        }
    }

    #[test]
    fn set_zero_keeps_dim_and_clears() {
        for d in [2usize, 6] {
            let mut v = WorkVector::from_slice(&vec![3.5; d]);
            v.set_zero();
            assert_eq!(v.dim(), d);
            assert!(v.is_zero());
        }
    }

    #[test]
    fn unused_inline_lanes_stay_zero_through_mutation() {
        for d in 1..=INLINE_DIM {
            let mut v = WorkVector::from_slice(&vec![2.0; d]);
            let w = WorkVector::from_slice(&vec![5.0; d]);
            v.accumulate(&w);
            assert!(v.inline_padding_is_zero(), "accumulate at d={d}");
            v.remove(&w);
            assert!(v.inline_padding_is_zero(), "remove at d={d}");
            assert!(v.scaled(3.0).inline_padding_is_zero(), "scaled at d={d}");
            assert!(v.max_with(&w).inline_padding_is_zero(), "max_with at d={d}");
            v[d - 1] = 7.0;
            assert!(v.inline_padding_is_zero(), "index_mut at d={d}");
            v.set_zero();
            assert!(v.inline_padding_is_zero(), "set_zero at d={d}");
        }
    }

    #[test]
    fn rates_match_per_component_division_bit_for_bit() {
        let mut rng = crate::rng::DetRng::seed_from_u64(0x5EED);
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        // d = 5 spills to the heap; the rest stay inline.
        for d in [2usize, 3, 4, 5] {
            for _ in 0..16 {
                let xs: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..50.0)).collect();
                let duration = rng.gen_range(0.01..20.0);
                let reference: Vec<f64> = xs.iter().map(|w| w / duration).collect();
                let r = WorkVector::from_slice(&xs).rates(duration);
                assert_eq!(bits(r.components()), bits(&reference), "d={d}");
                assert_eq!(r.is_inline(), d <= INLINE_DIM, "d={d}");
                assert!(r.inline_padding_is_zero(), "padding at d={d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive duration")]
    fn rates_reject_a_zero_duration() {
        let _ = WorkVector::from_slice(&[1.0, 2.0]).rates(0.0);
    }

    /// Naive `Vec<f64>` reference implementation of the kernel operations,
    /// used to check that inline and spilled representations agree.
    fn reference_ops(xs: &[f64], ys: &[f64]) -> (f64, Vec<f64>, Vec<f64>) {
        let length = xs.iter().copied().fold(0.0, f64::max);
        let acc: Vec<f64> = xs.iter().zip(ys).map(|(a, b)| a + b).collect();
        // vector_sum of [x, y, x] — exercises clone + repeated accumulate.
        let sum: Vec<f64> = xs.iter().zip(ys).map(|(a, b)| (a + b) + a).collect();
        (length, acc, sum)
    }

    #[test]
    fn inline_and_spill_agree_with_reference_across_dims() {
        let mut rng = crate::rng::DetRng::seed_from_u64(0xBEEF);
        for d in 1..=8usize {
            for _ in 0..16 {
                let xs: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..50.0)).collect();
                let ys: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..50.0)).collect();
                let (ref_len, ref_acc, ref_sum) = reference_ops(&xs, &ys);

                let x = WorkVector::from_slice(&xs);
                let y = WorkVector::from_slice(&ys);
                assert_eq!(x.is_inline(), d <= INLINE_DIM);

                assert_eq!(x.length(), ref_len, "length mismatch at d={d}");
                let mut acc = x.clone();
                acc.accumulate(&y);
                assert_eq!(acc.components(), &ref_acc[..], "accumulate at d={d}");
                let sum = WorkVector::vector_sum([&x, &y, &x]).unwrap();
                assert_eq!(sum.components(), &ref_sum[..], "vector_sum at d={d}");
            }
        }
    }

    #[cfg(feature = "proptest")]
    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Inline (d ≤ 4) and spilled (d > 4) vectors must agree with a
            /// plain-Vec reference on the hot kernel operations.
            #[test]
            fn repr_agrees_with_reference(
                pair in (1usize..=8).prop_flat_map(|d| (
                    proptest::collection::vec(0.0f64..1e6, d),
                    proptest::collection::vec(0.0f64..1e6, d),
                ))
            ) {
                let (xs, ys) = pair;
                let (ref_len, ref_acc, ref_sum) = reference_ops(&xs, &ys);
                let x = WorkVector::from_slice(&xs);
                let y = WorkVector::from_slice(&ys);
                prop_assert_eq!(x.is_inline(), xs.len() <= INLINE_DIM);
                prop_assert_eq!(x.length(), ref_len);
                let mut acc = x.clone();
                acc.accumulate(&y);
                prop_assert_eq!(acc.components(), &ref_acc[..]);
                let sum = WorkVector::vector_sum([&x, &y, &x]).unwrap();
                prop_assert_eq!(sum.components(), &ref_sum[..]);
            }
        }
    }
}
