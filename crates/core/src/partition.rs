//! Partitioned parallelism: cloning an operator across `N` sites
//! (Section 5.2.1, experimental assumption EA1) and choosing the degree of
//! partitioned parallelism (Proposition 4.1 + assumption A4).
//!
//! Under EA1 the operator's divisible work — its processing vector plus the
//! `β·D` network-interface time — is split across the `N` clones; the whole
//! `α·N` startup is charged to a single *coordinator* clone (clone 0),
//! divided equally between the coordinator's CPU and network-interface
//! dimensions.
//!
//! The *parallel execution time* of the operator in isolation is the
//! maximum of its clones' sequential times (Equation 1):
//!
//! ```text
//! T_par(op, N) = max_k T_seq(W_k)
//! ```

use crate::comm::CommModel;
use crate::model::ResponseModel;
use crate::operator::OperatorSpec;
use crate::resource::SiteSpec;
use crate::vector::WorkVector;

/// How the divisible work of an operator is split among its clones.
#[derive(Clone, Debug, PartialEq)]
pub enum PartitionStrategy {
    /// EA1: perfect split — every clone receives `1/N` of the divisible
    /// work. This is the paper's experimental assumption ("No Execution
    /// Skew").
    Even,
    /// Extension (paper Section 8 future work): clone `k` receives
    /// `weights[k] / Σ weights` of the divisible work. Used by the skew
    /// experiments. Weights must be positive; their number fixes `N`.
    Weighted(Vec<f64>),
}

impl PartitionStrategy {
    /// Normalized per-clone fractions for degree `n`.
    ///
    /// # Panics
    /// Panics for `Weighted` when the weight count differs from `n` or any
    /// weight is non-positive.
    pub fn fractions(&self, n: usize) -> Vec<f64> {
        assert!(n >= 1, "degree of parallelism must be at least 1");
        match self {
            PartitionStrategy::Even => vec![1.0 / n as f64; n],
            PartitionStrategy::Weighted(weights) => {
                assert_eq!(
                    weights.len(),
                    n,
                    "weighted partition needs exactly {n} weights, got {}",
                    weights.len()
                );
                let sum: f64 = weights.iter().sum();
                assert!(
                    weights.iter().all(|w| w.is_finite() && *w > 0.0) && sum > 0.0,
                    "partition weights must be positive"
                );
                weights.iter().map(|w| w / sum).collect()
            }
        }
    }
}

/// Builds the per-clone work vectors for executing `op` on `n` sites.
///
/// Clone 0 is the coordinator and carries the entire `α·n` startup cost,
/// split evenly between the CPU and network dimensions of `site` (EA1).
/// The divisible work — `op.processing` plus `β·D` on the network
/// dimension — is split according to `strategy`.
pub fn clone_vectors(
    op: &OperatorSpec,
    n: usize,
    comm: &CommModel,
    site: &SiteSpec,
    strategy: &PartitionStrategy,
) -> Vec<WorkVector> {
    let divisible = divisible_work(op, n, comm, site);
    // Every EA1 fraction is the same `1.0 / n`: scale once and copy.
    let mut clones = match strategy {
        PartitionStrategy::Even => vec![divisible.scaled(1.0 / n as f64); n],
        PartitionStrategy::Weighted(_) => strategy
            .fractions(n)
            .into_iter()
            .map(|frac| divisible.scaled(frac))
            .collect(),
    };
    charge_startup(&mut clones[0], n, comm, site);
    clones
}

/// [`clone_vectors`] in run-length form, bit for bit the same sequence.
///
/// Under `Even` the `n` clones are the coordinator followed by `n − 1`
/// copies of one `1/n` share: two runs from one `scaled(1/n)`, however
/// large `n` is. `Weighted` gives one run per clone.
pub fn clone_work(
    op: &OperatorSpec,
    n: usize,
    comm: &CommModel,
    site: &SiteSpec,
    strategy: &PartitionStrategy,
) -> CloneWork {
    if let PartitionStrategy::Weighted(_) = strategy {
        return clone_vectors(op, n, comm, site, strategy).into();
    }
    let share = divisible_work(op, n, comm, site).scaled(1.0 / n as f64);
    let mut coordinator = share.clone();
    charge_startup(&mut coordinator, n, comm, site);
    CloneWork::from_runs(if n == 1 {
        vec![(coordinator, 1)]
    } else {
        vec![(coordinator, 1), (share, n - 1)]
    })
}

/// `op`'s divisible work on `site`: its processing vector plus `β·D` on
/// the network dimension.
fn divisible_work(op: &OperatorSpec, n: usize, comm: &CommModel, site: &SiteSpec) -> WorkVector {
    assert_eq!(
        op.processing.dim(),
        site.dim(),
        "operator work vector dimensionality must match the site layout"
    );
    assert!(n >= 1, "degree of parallelism must be at least 1");
    let mut divisible = op.processing.clone();
    divisible.add_at(site.net_dim(), comm.transfer_time(op.data_volume));
    divisible
}

/// Charges the `α·n` startup to the coordinator's clone vector, split
/// evenly between the CPU and network dimensions.
fn charge_startup(coordinator: &mut WorkVector, n: usize, comm: &CommModel, site: &SiteSpec) {
    let startup = comm.alpha * n as f64;
    coordinator.add_at(site.cpu_dim(), startup / 2.0);
    coordinator.add_at(site.net_dim(), startup / 2.0);
}

/// The work vectors of an operator's clones in clone order, stored as
/// runs of equal vectors: `(vector, count)` pairs.
///
/// Clone `k` is the vector of the run that covers position `k`. Under
/// EA1 an operator at any degree is at most two runs (see
/// [`clone_work`]), so a schedule stores O(operators) vectors rather
/// than O(clones). The runs are a storage detail: [`CloneWork::iter`],
/// indexing, equality and `Debug` all work on the clone sequence, so two
/// values that split the same sequence into different runs are equal and
/// print alike.
#[derive(Clone)]
pub struct CloneWork {
    /// Runs in clone order; every count is at least 1.
    runs: Vec<(WorkVector, usize)>,
    /// Number of clones: the sum of the run counts.
    len: usize,
}

impl CloneWork {
    /// Builds the sequence from `(vector, count)` runs in clone order;
    /// runs with a zero count are dropped.
    pub fn from_runs(mut runs: Vec<(WorkVector, usize)>) -> Self {
        runs.retain(|&(_, n)| n > 0);
        let len = runs.iter().map(|&(_, n)| n).sum();
        CloneWork { runs, len }
    }

    /// Number of clones.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no clones.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The clone vectors in clone order, one item per clone.
    pub fn iter(&self) -> CloneIter<'_> {
        CloneIter {
            runs: &self.runs,
            taken: 0,
            remaining: self.len,
        }
    }

    /// The runs in clone order: each run's vector and how many
    /// consecutive clones share it.
    pub fn runs(&self) -> impl ExactSizeIterator<Item = (&WorkVector, usize)> {
        self.runs.iter().map(|(w, n)| (w, *n))
    }
}

impl From<Vec<WorkVector>> for CloneWork {
    /// One run per clone.
    fn from(clones: Vec<WorkVector>) -> Self {
        CloneWork::from_runs(clones.into_iter().map(|w| (w, 1)).collect())
    }
}

impl std::ops::Index<usize> for CloneWork {
    type Output = WorkVector;

    /// Clone `k`'s vector.
    ///
    /// # Panics
    /// Panics if `k >= self.len()`.
    fn index(&self, k: usize) -> &WorkVector {
        assert!(
            k < self.len,
            "clone {k} out of range for {} clones",
            self.len
        );
        if self.runs.len() == self.len {
            return &self.runs[k].0;
        }
        let mut end = 0;
        let (w, _) = self
            .runs
            .iter()
            .find(|&&(_, n)| {
                end += n;
                k < end
            })
            .expect("the runs cover 0..len");
        w
    }
}

impl PartialEq for CloneWork {
    /// Clone-by-clone equality, compared run against run so neither side
    /// is expanded.
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let (mut a, mut b) = (self.runs(), other.runs());
        let (mut left, mut right) = (None, None);
        loop {
            left = left.or_else(|| a.next());
            right = right.or_else(|| b.next());
            let (Some((wa, na)), Some((wb, nb))) = (left, right) else {
                return left.is_none() && right.is_none();
            };
            if wa != wb {
                return false;
            }
            let step = na.min(nb);
            left = (na > step).then_some((wa, na - step));
            right = (nb > step).then_some((wb, nb - step));
        }
    }
}

impl std::fmt::Debug for CloneWork {
    /// Prints the clone sequence, one vector per clone.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a CloneWork {
    type Item = &'a WorkVector;
    type IntoIter = CloneIter<'a>;

    fn into_iter(self) -> CloneIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`CloneWork`]'s clone vectors, one item per clone.
#[derive(Clone, Debug)]
pub struct CloneIter<'a> {
    /// Runs not yet finished; the first has `taken` clones yielded.
    runs: &'a [(WorkVector, usize)],
    taken: usize,
    remaining: usize,
}

impl<'a> Iterator for CloneIter<'a> {
    type Item = &'a WorkVector;

    fn next(&mut self) -> Option<&'a WorkVector> {
        let ((w, n), rest) = self.runs.split_first()?;
        self.taken += 1;
        if self.taken == *n {
            self.runs = rest;
            self.taken = 0;
        }
        self.remaining -= 1;
        Some(w)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for CloneIter<'_> {}

/// The total (processing + communication) work vector `W̄_op` of the
/// operator at degree `n` (Section 5.1): the vector sum of all clone
/// vectors. Its component sum equals `W_p(op) + W_c(op, n)`.
pub fn total_work_vector(
    op: &OperatorSpec,
    n: usize,
    comm: &CommModel,
    site: &SiteSpec,
) -> WorkVector {
    let mut w = op.processing.clone();
    w.add_at(site.net_dim(), comm.transfer_time(op.data_volume));
    let startup = comm.alpha * n as f64;
    w.add_at(site.cpu_dim(), startup / 2.0);
    w.add_at(site.net_dim(), startup / 2.0);
    w
}

/// `T_par(op, N)` of Equation (1): the parallel execution time of `op` on
/// `n` sites while alone in the system, i.e. the max sequential time over
/// its clones.
///
/// Under the EA1 even split every clone but the coordinator is the same
/// `1/n` share of the divisible work, and the coordinator is that share
/// plus the non-negative `α·n` startup on two dimensions. It therefore
/// dominates every other clone componentwise, and floating-point addition
/// cannot undo that. A [`ResponseModel`] must be monotone, so the
/// coordinator's time is the maximum, bit for bit: only it is evaluated.
/// This is the hot path of degree selection.
pub fn t_par<M: ResponseModel>(
    op: &OperatorSpec,
    n: usize,
    comm: &CommModel,
    site: &SiteSpec,
    model: &M,
) -> f64 {
    assert!(n >= 1, "degree of parallelism must be at least 1");
    let mut coordinator = op.processing.scaled(1.0 / n as f64);
    coordinator.add_at(
        site.net_dim(),
        comm.transfer_time(op.data_volume) / n as f64,
    );
    let startup = comm.alpha * n as f64;
    coordinator.add_at(site.cpu_dim(), startup / 2.0);
    coordinator.add_at(site.net_dim(), startup / 2.0);
    model.t_seq(&coordinator)
}

/// The minimum achievable `T_par(op, n)` over all degrees `1..=sites`,
/// with no coarse-granularity restriction — the operator's best possible
/// parallel time on this machine. A sound per-operator lower bound for
/// OPTBOUND-style estimates regardless of the granularity policy in force.
pub fn min_t_par<M: ResponseModel>(
    op: &OperatorSpec,
    sites: usize,
    comm: &CommModel,
    site: &SiteSpec,
    model: &M,
) -> f64 {
    assert!(sites >= 1, "system must have at least one site");
    let mut best = t_par(op, 1, comm, site, model);
    for n in 2..=sites {
        let t = t_par(op, n, comm, site, model);
        if t < best {
            best = t;
        }
    }
    best
}

/// Degree-of-parallelism decision for a floating operator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeChoice {
    /// The selected degree `N_i`.
    pub degree: usize,
    /// `N_max(op, f)` from Proposition 4.1 before capping by `P` and A4.
    pub coarse_grain_cap: usize,
    /// The degree at which `T_par` stops improving (A4 speed-down point),
    /// searched within `min(N_max, P)`.
    pub speeddown_cap: usize,
    /// `T_par(op, degree)`.
    pub t_par: f64,
}

/// Chooses the degree of partitioned parallelism for a floating operator:
/// `N_i = min(N_max(op, f), P)`, additionally capped at the speed-down
/// point so assumption A4 (non-increasing execution times) is never
/// violated (Section 6.1: "this optimal degree of parallelism is never
/// exceeded for any operator").
///
/// The returned degree is the smallest `n ≤ min(N_max, P)` minimizing
/// `T_par(op, n)`.
pub fn choose_degree<M: ResponseModel>(
    op: &OperatorSpec,
    f: f64,
    sites: usize,
    comm: &CommModel,
    site: &SiteSpec,
    model: &M,
) -> DegreeChoice {
    assert!(sites >= 1, "system must have at least one site");
    let cg_cap = comm.n_max_coarse_grain(f, op.processing_area(), op.data_volume);
    let cap = cg_cap.min(sites);
    let mut best_n = 1;
    let mut best_t = t_par(op, 1, comm, site, model);
    for n in 2..=cap {
        let t = t_par(op, n, comm, site, model);
        if t < best_t {
            best_t = t;
            best_n = n;
        }
    }
    DegreeChoice {
        degree: best_n,
        coarse_grain_cap: cg_cap,
        speeddown_cap: best_n,
        t_par: best_t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OverlapModel;
    use crate::operator::{OperatorId, OperatorKind};

    fn op(processing: &[f64], data: f64) -> OperatorSpec {
        OperatorSpec::floating(
            OperatorId(0),
            OperatorKind::Scan,
            WorkVector::from_slice(processing),
            data,
        )
    }

    fn setup() -> (CommModel, SiteSpec, OverlapModel) {
        (
            CommModel::new(0.015, 0.6e-6).unwrap(),
            SiteSpec::cpu_disk_net(),
            OverlapModel::new(0.5).unwrap(),
        )
    }

    #[test]
    fn even_fractions_sum_to_one() {
        let fr = PartitionStrategy::Even.fractions(4);
        assert_eq!(fr, vec![0.25; 4]);
    }

    #[test]
    fn weighted_fractions_normalize() {
        let fr = PartitionStrategy::Weighted(vec![1.0, 3.0]).fractions(2);
        assert_eq!(fr, vec![0.25, 0.75]);
    }

    #[test]
    #[should_panic(expected = "exactly 3 weights")]
    fn weighted_wrong_count_panics() {
        PartitionStrategy::Weighted(vec![1.0, 1.0]).fractions(3);
    }

    #[test]
    fn clones_conserve_work_and_charge_coordinator() {
        let (comm, site, _) = setup();
        let o = op(&[6.0, 3.0, 0.0], 1_000_000.0);
        let n = 3;
        let clones = clone_vectors(&o, n, &comm, &site, &PartitionStrategy::Even);
        assert_eq!(clones.len(), n);
        // Total work = W_p + β·D + α·N.
        let total: f64 = clones.iter().map(WorkVector::total).sum();
        let expected = o.processing_area() + comm.comm_area(n, o.data_volume);
        assert!((total - expected).abs() < 1e-9, "{total} vs {expected}");
        // Only clone 0 carries startup: other clones are identical.
        assert!(clones[1].approx_eq(&clones[2], 1e-12));
        assert!(clones[0].total() > clones[1].total());
        // Startup split between CPU and net dims.
        let startup = comm.alpha * n as f64;
        assert!(
            (clones[0][site.cpu_dim()] - (clones[1][site.cpu_dim()] + startup / 2.0)).abs() < 1e-12
        );
        assert!(
            (clones[0][site.net_dim()] - (clones[1][site.net_dim()] + startup / 2.0)).abs() < 1e-12
        );
        // Disk dimension untouched by communication.
        assert!((clones[0][1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_work_vector_matches_clone_sum() {
        let (comm, site, _) = setup();
        let o = op(&[6.0, 3.0, 0.0], 500_000.0);
        for n in [1usize, 2, 5, 8] {
            let clones = clone_vectors(&o, n, &comm, &site, &PartitionStrategy::Even);
            let sum = WorkVector::vector_sum(clones.iter()).unwrap();
            let total = total_work_vector(&o, n, &comm, &site);
            assert!(sum.approx_eq(&total, 1e-9), "n={n}: {sum:?} vs {total:?}");
        }
    }

    #[test]
    fn t_par_decreases_then_increases_with_startup() {
        let (comm, site, model) = setup();
        let o = op(&[10.0, 10.0, 0.0], 0.0);
        let t1 = t_par(&o, 1, &comm, &site, &model);
        let t4 = t_par(&o, 4, &comm, &site, &model);
        assert!(t4 < t1, "parallelism should help: {t4} vs {t1}");
        // With enough sites the α·N startup at the coordinator dominates.
        let t_huge = t_par(&o, 5_000, &comm, &site, &model);
        assert!(t_huge > t4, "startup should eventually dominate");
    }

    #[test]
    fn choose_degree_respects_cg_cap() {
        let (comm, site, model) = setup();
        let o = op(&[1.0, 1.0, 0.0], 0.0);
        // N_max = ⌊f·W_p/α⌋ = ⌊0.3·2/0.015⌋ = 40.
        let choice = choose_degree(&o, 0.3, 1000, &comm, &site, &model);
        assert_eq!(choice.coarse_grain_cap, 40);
        assert!(choice.degree <= 40);
        assert!(choice.degree >= 1);
    }

    #[test]
    fn choose_degree_respects_site_count() {
        let (comm, site, model) = setup();
        let o = op(&[100.0, 100.0, 0.0], 0.0);
        let choice = choose_degree(&o, 0.9, 8, &comm, &site, &model);
        assert!(choice.degree <= 8);
    }

    #[test]
    fn choose_degree_never_beyond_speeddown_point() {
        let (comm, site, model) = setup();
        let o = op(&[2.0, 2.0, 0.0], 0.0);
        let choice = choose_degree(&o, 10.0, 10_000, &comm, &site, &model);
        // T_par at the chosen degree must not improve by adding one site.
        let t_next = t_par(&o, choice.degree + 1, &comm, &site, &model);
        assert!(choice.t_par <= t_next + 1e-12);
        // ... and must be no worse than running sequentially.
        let t_seq = t_par(&o, 1, &comm, &site, &model);
        assert!(choice.t_par <= t_seq + 1e-12);
    }

    /// `T_par` as it was computed before only the coordinator was
    /// evaluated: the max over the coordinator and a plain clone.
    fn two_clone_t_par(op: &OperatorSpec, n: usize, comm: &CommModel, model: &OverlapModel) -> f64 {
        let site = SiteSpec::cpu_disk_net();
        let mut plain = op.processing.scaled(1.0 / n as f64);
        plain.add_at(
            site.net_dim(),
            comm.transfer_time(op.data_volume) / n as f64,
        );
        let mut coordinator = plain.clone();
        let startup = comm.alpha * n as f64;
        coordinator.add_at(site.cpu_dim(), startup / 2.0);
        coordinator.add_at(site.net_dim(), startup / 2.0);
        if n == 1 {
            model.t_seq(&coordinator)
        } else {
            model.t_seq(&coordinator).max(model.t_seq(&plain))
        }
    }

    /// Seeded operators over several magnitudes, some with zero data
    /// volume, one tiny enough that `N_max` is 1, one all-zero.
    fn seeded_ops() -> Vec<OperatorSpec> {
        let mut rng = crate::rng::DetRng::seed_from_u64(1996);
        let mut ops: Vec<OperatorSpec> = (0..60)
            .map(|i| {
                let scale = [1e-4, 1e-2, 1.0, 30.0, 1e3][i % 5];
                let w = [
                    scale * rng.gen_range(0.0..1.0),
                    scale * rng.gen_range(0.0..1.0),
                    scale * rng.gen_range(0.0..0.2),
                ];
                let data = if i % 3 == 0 {
                    0.0
                } else {
                    rng.gen_range(0.0..4e7)
                };
                op(&w, data)
            })
            .collect();
        ops.push(op(&[1e-6, 0.0, 0.0], 0.0));
        ops.push(op(&[0.0, 0.0, 0.0], 0.0));
        ops
    }

    const EPSILONS: [f64; 4] = [0.0, 0.25, 0.5, 1.0];

    #[test]
    fn coordinator_t_par_matches_the_two_clone_formula_bit_for_bit() {
        let (comm, site, _) = setup();
        for eps in EPSILONS {
            let model = OverlapModel::new(eps).unwrap();
            for o in seeded_ops() {
                for n in 1..=140 {
                    let t = t_par(&o, n, &comm, &site, &model);
                    let reference = two_clone_t_par(&o, n, &comm, &model);
                    assert_eq!(t.to_bits(), reference.to_bits(), "eps={eps} n={n} {o:?}");
                }
            }
        }
    }

    #[test]
    fn choose_degree_matches_a_full_reference_scan() {
        let (comm, site, _) = setup();
        for eps in EPSILONS {
            let model = OverlapModel::new(eps).unwrap();
            for o in seeded_ops() {
                for (f, sites) in [(0.7, 140), (0.3, 20), (2.0, 140), (0.0, 140), (0.7, 1)] {
                    let cg_cap = comm.n_max_coarse_grain(f, o.processing_area(), o.data_volume);
                    let (mut best_n, mut best_t) = (1, two_clone_t_par(&o, 1, &comm, &model));
                    for n in 2..=cg_cap.min(sites) {
                        let t = two_clone_t_par(&o, n, &comm, &model);
                        if t < best_t {
                            (best_n, best_t) = (n, t);
                        }
                    }
                    let choice = choose_degree(&o, f, sites, &comm, &site, &model);
                    assert_eq!(choice.degree, best_n, "eps={eps} f={f} P={sites} {o:?}");
                    assert_eq!(choice.speeddown_cap, best_n);
                    assert_eq!(choice.coarse_grain_cap, cg_cap);
                    assert_eq!(choice.t_par.to_bits(), best_t.to_bits());
                }
            }
        }
    }

    #[test]
    fn even_clone_vectors_equal_unit_weights_bit_for_bit() {
        let (comm, site, _) = setup();
        for o in seeded_ops() {
            for n in 1..=140 {
                let even = clone_vectors(&o, n, &comm, &site, &PartitionStrategy::Even);
                let unit = PartitionStrategy::Weighted(vec![1.0; n]);
                let weighted = clone_vectors(&o, n, &comm, &site, &unit);
                assert_eq!(even.len(), n);
                for (k, (a, b)) in even.iter().zip(&weighted).enumerate() {
                    let bits = |w: &WorkVector| -> Vec<u64> {
                        w.components().iter().map(|c| c.to_bits()).collect()
                    };
                    assert_eq!(bits(a), bits(b), "n={n} clone {k} {o:?}");
                }
            }
        }
    }

    /// Checks `work` against the per-clone `reference` bit for bit through
    /// every read path: `len`, `iter`, `&`-iteration and `Index`.
    fn assert_same_clones(work: &CloneWork, reference: &[WorkVector], what: &str) {
        let bits =
            |w: &WorkVector| -> Vec<u64> { w.components().iter().map(|c| c.to_bits()).collect() };
        assert_eq!(work.len(), reference.len(), "{what}: len");
        assert_eq!(work.iter().len(), reference.len(), "{what}: iter len");
        assert_eq!(work.iter().count(), reference.len(), "{what}: iter count");
        for (k, (a, b)) in work.iter().zip(reference).enumerate() {
            assert_eq!(bits(a), bits(b), "{what}: iter clone {k}");
        }
        for (k, (a, b)) in work.into_iter().zip(reference).enumerate() {
            assert_eq!(bits(a), bits(b), "{what}: into_iter clone {k}");
        }
        for (k, b) in reference.iter().enumerate() {
            assert_eq!(bits(&work[k]), bits(b), "{what}: index clone {k}");
        }
        let covered: usize = work.runs().map(|(_, n)| n).sum();
        assert_eq!(covered, reference.len(), "{what}: run counts");
    }

    #[test]
    fn even_clone_work_matches_clone_vectors_bit_for_bit() {
        let (comm, site, _) = setup();
        for o in seeded_ops() {
            for n in 1..=140 {
                let work = clone_work(&o, n, &comm, &site, &PartitionStrategy::Even);
                let reference = clone_vectors(&o, n, &comm, &site, &PartitionStrategy::Even);
                assert_same_clones(&work, &reference, &format!("n={n} {o:?}"));
                assert_eq!(work.runs().len(), n.min(2), "n={n}: EA1 is two runs");
            }
        }
    }

    #[test]
    fn weighted_clone_work_matches_clone_vectors_bit_for_bit() {
        let (comm, site, _) = setup();
        let mut rng = crate::rng::DetRng::seed_from_u64(24);
        for o in seeded_ops() {
            let mut cases = vec![
                vec![2.0, 1.0, 2.0, 1.0],
                vec![1.0, 1.0, 1.0],
                vec![1.0],
                vec![3.0, 3.0, 1.0, 1.0, 1.0],
            ];
            let n = rng.gen_range(1..=140);
            cases.push((0..n).map(|_| rng.gen_range(1usize..4) as f64).collect());
            for weights in cases {
                let n = weights.len();
                let strategy = PartitionStrategy::Weighted(weights);
                let work = clone_work(&o, n, &comm, &site, &strategy);
                let reference = clone_vectors(&o, n, &comm, &site, &strategy);
                assert_same_clones(&work, &reference, &format!("{strategy:?} {o:?}"));
                assert_eq!(work.runs().len(), n, "one run per weighted clone");
            }
        }
    }

    #[test]
    fn equality_and_debug_ignore_how_the_runs_are_split() {
        let x = WorkVector::from_slice(&[2.0, 1.0, 0.5]);
        let y = WorkVector::from_slice(&[1.0, 1.0, 0.0]);
        let expanded = vec![x.clone(), y.clone(), y.clone(), y.clone()];
        let splits = [
            CloneWork::from(expanded.clone()),
            CloneWork::from_runs(vec![(x.clone(), 1), (y.clone(), 3)]),
            CloneWork::from_runs(vec![(x.clone(), 1), (y.clone(), 1), (y.clone(), 2)]),
            CloneWork::from_runs(vec![(x.clone(), 1), (y.clone(), 0), (y.clone(), 3)]),
        ];
        let printed = format!("{expanded:?}");
        for a in &splits {
            assert_eq!(format!("{a:?}"), printed);
            assert_eq!(format!("{a:#?}"), format!("{expanded:#?}"));
            for b in &splits {
                assert_eq!(a, b);
            }
        }
        let differs = [
            CloneWork::from_runs(vec![(x.clone(), 1), (y.clone(), 2)]),
            CloneWork::from_runs(vec![(x.clone(), 1), (y.clone(), 4)]),
            CloneWork::from_runs(vec![(x.clone(), 2), (y.clone(), 2)]),
            CloneWork::from_runs(vec![(x.clone(), 1), (y.clone(), 2), (x.clone(), 1)]),
            CloneWork::from_runs(vec![(y.clone(), 1), (y.clone(), 3)]),
        ];
        for d in &differs {
            assert_ne!(&splits[1], d, "{d:?}");
            assert_ne!(d, &splits[2], "{d:?}");
        }
        assert_eq!(
            CloneWork::from(Vec::new()),
            CloneWork::from_runs(vec![(x, 0)])
        );
    }

    #[test]
    #[should_panic(expected = "clone 4 out of range for 4 clones")]
    fn index_past_the_end_panics() {
        let y = WorkVector::from_slice(&[1.0, 1.0, 0.0]);
        let work = CloneWork::from_runs(vec![(y.clone(), 1), (y, 3)]);
        let _ = &work[4];
    }

    #[test]
    fn choose_degree_tiny_operator_stays_sequential() {
        let (comm, site, model) = setup();
        // W_p far below α: parallelism can never pay off.
        let o = op(&[1e-6, 0.0, 0.0], 0.0);
        let choice = choose_degree(&o, 0.9, 100, &comm, &site, &model);
        assert_eq!(choice.degree, 1);
    }
}

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use crate::model::OverlapModel;
    use crate::operator::{OperatorId, OperatorKind};
    use proptest::prelude::*;

    fn arb_op() -> impl Strategy<Value = OperatorSpec> {
        (proptest::collection::vec(0.0f64..100.0, 3), 0.0f64..1e7).prop_map(|(mut w, d)| {
            // Avoid the all-zero degenerate operator.
            w[0] += 1e-3;
            OperatorSpec::floating(OperatorId(0), OperatorKind::Other, WorkVector::new(w), d)
        })
    }

    proptest! {
        /// Work conservation: clone vectors always sum to W_p + W_c.
        #[test]
        fn clones_conserve_total_area(o in arb_op(), n in 1usize..32) {
            let comm = CommModel::paper_defaults();
            let site = SiteSpec::cpu_disk_net();
            let clones = clone_vectors(&o, n, &comm, &site, &PartitionStrategy::Even);
            let total: f64 = clones.iter().map(WorkVector::total).sum();
            let expected = o.processing_area() + comm.comm_area(n, o.data_volume);
            prop_assert!((total - expected).abs() <= 1e-6 * expected.max(1.0));
        }

        /// A4 within the search range: the chosen T_par is minimal over
        /// all degrees up to the cap.
        #[test]
        fn chosen_degree_minimizes_t_par(o in arb_op(), eps in 0.0f64..=1.0, sites in 1usize..64) {
            let comm = CommModel::paper_defaults();
            let site = SiteSpec::cpu_disk_net();
            let model = OverlapModel::new(eps).unwrap();
            let choice = choose_degree(&o, 0.7, sites, &comm, &site, &model);
            let cap = choice.coarse_grain_cap.min(sites);
            for n in 1..=cap {
                let t = t_par(&o, n, &comm, &site, &model);
                prop_assert!(choice.t_par <= t + 1e-9 * t.max(1.0));
            }
        }

        /// Section 7 footnote 5: work vectors are non-decreasing in N.
        #[test]
        fn total_vector_monotone_in_n(o in arb_op(), n in 1usize..64) {
            let comm = CommModel::paper_defaults();
            let site = SiteSpec::cpu_disk_net();
            let a = total_work_vector(&o, n, &comm, &site);
            let b = total_work_vector(&o, n + 1, &comm, &site);
            prop_assert!(a.le_componentwise(&b));
        }
    }
}
