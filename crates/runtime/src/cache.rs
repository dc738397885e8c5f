//! Plan-signature schedule cache: memoizes `tree_schedule` across a
//! templated query stream.
//!
//! Online serving workloads are dominated by *query templates* — the same
//! plan shape arriving over and over with identical cost vectors. The
//! TreeSchedule at admission is a pure function of
//! `(problem, f, system, comm, model)`; with the system, communication,
//! and response models fixed for a runtime's lifetime, the admission
//! schedule is fully determined by `(problem, f)`. The cache canonicalizes
//! that pair into a [`PlanSignature`] and memoizes the resulting
//! [`TreeScheduleResult`] behind an [`Arc`], so a template's second
//! arrival skips planning entirely.
//!
//! Two properties are non-negotiable:
//!
//! * **Exactness.** The signature quantizes every float at full 64-bit
//!   precision — the exact IEEE bit patterns, via `to_bits` — and encodes
//!   the complete plan shape (operator table, placement constraints, task
//!   graph, bindings). Signature equality therefore implies the fresh
//!   computation would be *bit-identical*, never merely similar: a lossy
//!   signature could collide two nearby problems and serve one of them a
//!   wrong schedule. The cold replay
//!   ([`Runtime::replay_cache_hits`](crate::runtime::Runtime::replay_cache_hits))
//!   checks this from the audit trace: it re-plans every recorded hit
//!   at the governed cap in force and compares its [`plan_digest`]
//!   with the hit's.
//! * **Purity.** A cold plan depends only on `(problem, f, system,
//!   comm, model, cap)`. `tree_schedule` plans against the full site
//!   set, never against the sites that happen to be up, and the
//!   runtime's recovery layer re-packs *around* dead sites at dispatch.
//!   A crash or restore changes none of the plan's inputs, so no fault
//!   can stale a memoized plan, and both tables here are plain memos
//!   with no invalidation: an entry, once inserted, is served for the
//!   runtime's whole life. Each entry carries a 64-bit digest of its
//!   plan ([`plan_digest`], [`fragment_digest`]), computed once at
//!   insert; the audit trace records it on every insert and hit, so
//!   `mrs-audit` can replay that every hit served exactly the bytes its
//!   signature was memoized with.
//!
//! Every 64-bit word the trace records for the memo is one fold,
//! [`WordFold`]: [`PlanSignature::hash64`], [`plan_digest`],
//! [`fragment_digest`] and [`SubtreeSig::hash64`] alike, one multiply
//! per word.
//!
//! Both tables hash with the same fixed-key `WordFold` instead of std's
//! randomly seeded `RandomState`. Nothing iterates them, so no output
//! depends on the hasher either way; a fixed one makes their drop
//! order, and with it the heap layout they leave behind, the same in
//! every process (a random seed made e2ebench's `peak_rss_mb`
//! bimodal). The keys are injective encodings, so a collision can only
//! cost a probe, never serve a wrong plan.

use mrs_core::operator::Placement;
use mrs_core::shared::{ScheduleFragment, SharedStats, SubtreeSig, WordFold};
use mrs_core::tree::{TreeProblem, TreeScheduleResult};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// The fixed-key hasher of the cache's tables (see the [module
/// docs](self)).
type FoldState = BuildHasherDefault<WordFold>;

/// Counters describing how a run's admissions hit the schedule cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Admissions served from the cache (no `tree_schedule` call).
    pub hits: u64,
    /// Admissions that computed a fresh plan — the run's re-plan count.
    pub misses: u64,
    /// Retired: always 0. The cache no longer reacts to site crashes
    /// or restores (see the [module docs](self)); the field stays only
    /// because the e2ebench harness still reads it.
    pub epoch_bumps: u64,
    /// Retired: always 0. Entries are never evicted; kept for the same
    /// reason as `epoch_bumps`.
    pub stale_evictions: u64,
    /// Subtree fragments served from the memo by the shared planner
    /// (one per spliced subtree; zero when plan sharing is off).
    pub subtree_hits: u64,
    /// Fragmentable subtrees the shared planner had to compute fresh.
    pub subtree_misses: u64,
    /// Phase schedules taken from the subtree memo across all splices.
    pub fragments_spliced: u64,
    /// Task pipelines actually packed — the unit of planning work plan
    /// sharing avoids. Unshared paths count every task of every plan
    /// they compute, so shared/unshared runs compare directly.
    pub tasks_planned: u64,
    /// MQO batches released from the admission queue (zero unless the
    /// runtime runs with a batch window).
    pub batches_released: u64,
    /// Queries released across all MQO batches; divided by
    /// `batches_released` this gives the mean batch occupancy.
    pub batch_members: u64,
}

impl CacheStats {
    /// Fraction of admissions served from the cache (`0.0` when no
    /// admission happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total > 0 {
            self.hits as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// The canonical, hashable form of `(TreeProblem, f)`. Two problems share
/// a signature iff a fresh `tree_schedule` over them (same system/models)
/// performs bit-identical arithmetic.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanSignature(Vec<u64>);

impl PlanSignature {
    /// Canonicalizes `problem` and the granularity `f` into a signature
    /// with no governed degree cap ([`PlanSignature::of_capped`] with
    /// `None`).
    pub fn of(problem: &TreeProblem, f: f64) -> Self {
        PlanSignature::of_capped(problem, f, None)
    }

    /// Canonicalizes `(problem, f, cap)` into a signature, where `cap` is
    /// the overload controller's governed clone-degree cap (see
    /// [`PlanOptions::cap`](mrs_core::tree::PlanOptions::cap)).
    /// The cap is part of the plan's identity: a template planned
    /// degraded and the same template planned at full parallelism get
    /// distinct signatures and coexist in the cache.
    ///
    /// Encoding: every float contributes its exact `to_bits` pattern;
    /// every enum a discriminant word; every list its length followed by
    /// its elements; the cap one word (`0` = uncapped, else `cap + 1` —
    /// injective because caps are finite). The encoding is injective
    /// over valid problems, so collisions are impossible rather than
    /// improbable.
    pub fn of_capped(problem: &TreeProblem, f: f64, cap: Option<usize>) -> Self {
        let mut w = Vec::with_capacity(8 + problem.ops.len() * 8);
        w.push(f.to_bits());
        w.push(cap.map_or(0, |c| c as u64 + 1));
        w.push(problem.ops.len() as u64);
        for op in &problem.ops {
            w.push(op.id.0 as u64);
            w.push(op.kind as u64);
            w.push(op.processing.dim() as u64);
            for i in 0..op.processing.dim() {
                w.push(op.processing[i].to_bits());
            }
            w.push(op.data_volume.to_bits());
            match &op.placement {
                Placement::Floating => w.push(0),
                Placement::Rooted(homes) => {
                    w.push(1);
                    w.push(homes.len() as u64);
                    w.extend(homes.iter().map(|s| s.0 as u64));
                }
            }
        }
        w.push(problem.tasks.len() as u64);
        for node in problem.tasks.nodes() {
            w.push(node.ops.len() as u64);
            w.extend(node.ops.iter().map(|o| o.0 as u64));
            w.push(node.parent.map_or(u64::MAX, |p| p.0 as u64));
        }
        w.push(problem.bindings.len() as u64);
        for b in &problem.bindings {
            w.push(b.dependent.0 as u64);
            w.push(b.source.0 as u64);
        }
        PlanSignature(w)
    }

    /// A `WordFold` of the signature's words: the key the audit trace
    /// records for a whole-plan insert or hit.
    pub fn hash64(&self) -> u64 {
        WordFold::of(&self.0)
    }
}

/// One memoized admission plan with the two words the audit trace
/// records for it.
#[derive(Clone, Debug)]
pub struct CachedPlan {
    /// The memoized admission schedule.
    pub schedule: Arc<TreeScheduleResult>,
    /// [`PlanSignature::hash64`] of the key it is memoized under.
    pub sig_hash: u64,
    /// [`plan_digest`] of `schedule`.
    pub digest: u64,
}

/// The whole-plan memo from [`PlanSignature`] to the schedule, plus the
/// subtree-fragment memo. See the [module docs](self).
#[derive(Debug, Default)]
pub struct ScheduleCache {
    entries: HashMap<PlanSignature, CachedPlan, FoldState>,
    /// Subtree-grained memo for the shared planner, keyed by canonical
    /// subtree signature; each fragment carries its bit-level digest
    /// (see [`fragment_digest`]), replayed by the sharing-coherence
    /// audit.
    subtree: HashMap<SubtreeSig, (Arc<ScheduleFragment>, u64), FoldState>,
    stats: CacheStats,
}

impl ScheduleCache {
    /// An empty cache. The site count is retired and ignored (a pure
    /// memo has no per-site state); the parameter stays only because
    /// the e2ebench harness still passes it.
    pub fn new(_sites: usize) -> Self {
        ScheduleCache::default()
    }

    /// Hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of memoized schedules.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `sig`, counting a hit or a miss.
    pub fn get(&mut self, sig: &PlanSignature) -> Option<CachedPlan> {
        let hit = self.entries.get(sig).cloned();
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        hit
    }

    /// Memoizes a freshly computed schedule under `sig`, computing its
    /// signature hash and digest once, and returns the entry. The
    /// footprint argument is retired and ignored (see the [module
    /// docs](self)); it stays only because the e2ebench harness still
    /// passes one.
    pub fn insert(
        &mut self,
        sig: PlanSignature,
        schedule: Arc<TreeScheduleResult>,
        _footprint: Vec<usize>,
    ) -> CachedPlan {
        let plan = CachedPlan {
            sig_hash: sig.hash64(),
            digest: plan_digest(&schedule),
            schedule,
        };
        self.entries.insert(sig, plan.clone());
        plan
    }

    /// Looks up a subtree fragment and the digest recorded at its
    /// insertion. Hit/miss *counters* are charged by
    /// [`ScheduleCache::absorb_shared`] from the planner's own tally,
    /// not here, so a splice is counted exactly once.
    pub fn fragment_get(&self, sig: &SubtreeSig) -> Option<(Arc<ScheduleFragment>, u64)> {
        self.subtree.get(sig).cloned()
    }

    /// Memoizes a freshly computed subtree fragment with its bit-level
    /// digest. Returns the digest so the caller can log it.
    pub fn fragment_insert(&mut self, sig: SubtreeSig, frag: Arc<ScheduleFragment>) -> u64 {
        let digest = fragment_digest(&frag);
        self.subtree.insert(sig, (frag, digest));
        digest
    }

    /// Folds one cold plan's counters into the run's cache statistics.
    pub fn absorb_shared(&mut self, shared: &SharedStats) {
        self.stats.subtree_hits += shared.subtree_hits;
        self.stats.subtree_misses += shared.subtree_misses;
        self.stats.fragments_spliced += shared.fragments_spliced;
        self.stats.tasks_planned += shared.tasks_planned;
    }
}

/// The sorted, deduplicated set of sites a schedule's clones land on.
pub fn schedule_footprint(schedule: &TreeScheduleResult) -> Vec<usize> {
    let mut touched: Vec<usize> = schedule
        .phases
        .iter()
        .flat_map(|p| p.schedule.assignment.homes.iter())
        .flat_map(|homes| homes.iter().map(|s| s.0))
        .collect();
    touched.sort_unstable();
    touched.dedup();
    touched
}

/// Emits every numeric field of a schedule, each as one word: phase levels
/// and makespans, operator degrees, per-clone work-vector components,
/// clone homes, and the total response time — all floats as exact bit
/// patterns.
fn schedule_words(schedule: &TreeScheduleResult, mut emit: impl FnMut(u64)) {
    emit(schedule.response_time.to_bits());
    emit(schedule.phases.len() as u64);
    for phase in &schedule.phases {
        emit(phase.level as u64);
        emit(phase.makespan.to_bits());
        emit(phase.schedule.ops.len() as u64);
        for (op, homes) in phase
            .schedule
            .ops
            .iter()
            .zip(&phase.schedule.assignment.homes)
        {
            emit(op.spec.id.0 as u64);
            emit(op.degree as u64);
            for clone in &op.clones {
                for i in 0..clone.dim() {
                    emit(clone[i].to_bits());
                }
            }
            homes.iter().for_each(|s| emit(s.0 as u64));
        }
    }
}

/// A canonical bit-level digest of a schedule: equal digests mean
/// byte-identical plans.
pub fn schedule_digest(schedule: &TreeScheduleResult) -> Vec<u64> {
    let mut w = Vec::new();
    schedule_words(schedule, |x| w.push(x));
    w
}

/// A `WordFold` of [`schedule_digest`]'s words: the plan digest a
/// [`CachedPlan`] stores and the audit trace records on every whole-plan
/// insert and hit.
pub fn plan_digest(schedule: &TreeScheduleResult) -> u64 {
    let mut h = WordFold::new();
    schedule_words(schedule, |w| h.push(w));
    h.finish()
}

/// Numbers the distinct uncapped [`PlanSignature`]s of `problems` in
/// first-seen order. Returns each problem's number and, for each
/// number, the position of the first problem that carries it.
pub(crate) fn number_signatures<'a>(
    problems: impl IntoIterator<Item = &'a TreeProblem>,
    f: f64,
) -> (Vec<usize>, Vec<usize>) {
    let mut seen: HashMap<PlanSignature, usize, FoldState> = HashMap::default();
    let mut firsts = Vec::new();
    let numbers = problems
        .into_iter()
        .enumerate()
        .map(|(k, problem)| {
            *seen
                .entry(PlanSignature::of(problem, f))
                .or_insert_with(|| {
                    firsts.push(k);
                    firsts.len() - 1
                })
        })
        .collect();
    (numbers, firsts)
}

/// A `WordFold` over a subtree fragment's complete numeric content:
/// the level count, then per level its operator count and, per
/// operator, its id, degree, clone work vectors (exact bit patterns)
/// and clone homes, one word each. The sharing-coherence audit replays
/// these digests: every splice of a signature must carry the digest its
/// insertion recorded, proving the spliced bytes are the memoized bytes.
pub fn fragment_digest(frag: &ScheduleFragment) -> u64 {
    let mut h = WordFold::new();
    h.push(frag.levels.len() as u64);
    for phase in &frag.levels {
        h.push(phase.ops.len() as u64);
        for (op, homes) in phase.ops.iter().zip(&phase.assignment.homes) {
            h.push(op.spec.id.0 as u64);
            h.push(op.degree as u64);
            for (clone, count) in op.clones.runs() {
                for _ in 0..count {
                    clone.components().iter().for_each(|c| h.push(c.to_bits()));
                }
            }
            homes.iter().for_each(|s| h.push(s.0 as u64));
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrs_core::operator::{OperatorId, OperatorKind, OperatorSpec};
    use mrs_core::resource::SiteId;
    use mrs_core::tasks::{HomeBinding, TaskGraph};
    use mrs_core::vector::WorkVector;

    fn problem(cpu: f64) -> TreeProblem {
        TreeProblem {
            ops: vec![OperatorSpec::floating(
                OperatorId(0),
                OperatorKind::Scan,
                WorkVector::from_slice(&[cpu, 1.0, 0.0]),
                64.0,
            )],
            tasks: TaskGraph::single_task(vec![OperatorId(0)]),
            bindings: vec![],
        }
    }

    fn sched() -> Arc<TreeScheduleResult> {
        Arc::new(TreeScheduleResult {
            phases: vec![],
            response_time: 1.5,
        })
    }

    #[test]
    fn identical_problems_share_a_signature() {
        assert_eq!(
            PlanSignature::of(&problem(3.0), 0.7),
            PlanSignature::of(&problem(3.0), 0.7)
        );
    }

    #[test]
    fn any_input_perturbation_changes_the_signature() {
        let base = PlanSignature::of(&problem(3.0), 0.7);
        // Work vector off by one ulp.
        assert_ne!(
            base,
            PlanSignature::of(&problem(f64::from_bits(3.0f64.to_bits() + 1)), 0.7)
        );
        // Different granularity.
        assert_ne!(base, PlanSignature::of(&problem(3.0), 0.71));
        // Different kind.
        let mut p = problem(3.0);
        p.ops[0].kind = OperatorKind::Sort;
        assert_ne!(base, PlanSignature::of(&p, 0.7));
        // Rooted placement.
        let mut p = problem(3.0);
        p.ops[0].placement = Placement::Rooted(vec![SiteId(1)]);
        assert_ne!(base, PlanSignature::of(&p, 0.7));
        // Extra binding.
        let mut p = problem(3.0);
        p.bindings.push(HomeBinding {
            dependent: OperatorId(0),
            source: OperatorId(0),
        });
        assert_ne!(base, PlanSignature::of(&p, 0.7));
    }

    #[test]
    fn governed_cap_is_part_of_the_signature() {
        let p = problem(3.0);
        // Uncapped via either entry point: identical.
        assert_eq!(
            PlanSignature::of(&p, 0.7),
            PlanSignature::of_capped(&p, 0.7, None)
        );
        // Distinct caps, distinct signatures — degraded and full plans
        // coexist in the cache.
        let uncapped = PlanSignature::of_capped(&p, 0.7, None);
        let cap2 = PlanSignature::of_capped(&p, 0.7, Some(2));
        let cap4 = PlanSignature::of_capped(&p, 0.7, Some(4));
        assert_ne!(uncapped, cap2);
        assert_ne!(cap2, cap4);
        // cap = 0 must not collide with uncapped (the +1 offset).
        assert_ne!(uncapped, PlanSignature::of_capped(&p, 0.7, Some(0)));
        assert_eq!(cap2, PlanSignature::of_capped(&p, 0.7, Some(2)));
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let mut cache = ScheduleCache::default();
        let sig = PlanSignature::of(&problem(2.0), 0.7);
        assert!(cache.get(&sig).is_none());
        let sched = sched();
        let inserted = cache.insert(sig.clone(), Arc::clone(&sched), Vec::new());
        assert_eq!(inserted.sig_hash, sig.hash64());
        assert_eq!(inserted.digest, plan_digest(&sched));
        assert_eq!(cache.len(), 1);
        let hit = cache.get(&sig).expect("second lookup hits");
        assert!(Arc::ptr_eq(&hit.schedule, &sched));
        assert_eq!(
            (hit.sig_hash, hit.digest),
            (inserted.sig_hash, inserted.digest)
        );
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn plan_digest_folds_the_schedule_digest() {
        let a = TreeScheduleResult {
            phases: vec![],
            response_time: 2.0,
        };
        assert_eq!(plan_digest(&a), WordFold::of(&schedule_digest(&a)));
        let mut b = a.clone();
        b.response_time = f64::from_bits(2.0f64.to_bits() + 1);
        assert_ne!(plan_digest(&a), plan_digest(&b));
    }

    #[test]
    fn signatures_are_numbered_in_first_seen_order() {
        let problems = [problem(2.0), problem(3.0), problem(2.0), problem(4.0)];
        let (numbers, firsts) = number_signatures(&problems, 0.7);
        assert_eq!(numbers, vec![0, 1, 0, 2]);
        assert_eq!(firsts, vec![0, 1, 3]);
    }

    #[test]
    fn word_fold_hashes_a_signature_like_its_words() {
        use std::hash::BuildHasher;
        let sig = PlanSignature::of(&problem(2.0), 0.7);
        // `Hash for Vec<u64>` writes the length, then the words as one
        // byte slice, which the hasher folds back into the same words.
        let mut direct = WordFold::new();
        direct.push(sig.0.len() as u64);
        sig.0.iter().for_each(|&w| direct.push(w));
        assert_eq!(FoldState::default().hash_one(&sig), direct.finish());
    }

    #[test]
    fn hit_rate_is_well_defined() {
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    fn fragment_for(sites: &[usize]) -> Arc<ScheduleFragment> {
        use mrs_core::partition::CloneWork;
        use mrs_core::schedule::{Assignment, PhaseSchedule, ScheduledOperator};
        let spec = OperatorSpec::floating(
            OperatorId(0),
            OperatorKind::Scan,
            WorkVector::from_slice(&[1.0, 0.5, 0.0]),
            64.0,
        );
        let clones = CloneWork::from_runs(vec![(
            WorkVector::from_slice(&[1.0, 0.5, 0.0]),
            sites.len(),
        )]);
        Arc::new(ScheduleFragment {
            levels: vec![PhaseSchedule {
                ops: vec![ScheduledOperator {
                    spec,
                    degree: sites.len(),
                    clones,
                }],
                assignment: Assignment {
                    homes: vec![sites.iter().map(|&s| SiteId(s)).collect()],
                },
            }],
        })
    }

    fn sig_for(cpu: f64) -> SubtreeSig {
        mrs_core::shared::subtree_signatures(&problem(cpu), 0.7, None).expect("valid problem")[0]
            .clone()
    }

    #[test]
    fn fragment_memo_round_trips_with_its_digest() {
        let mut cache = ScheduleCache::default();
        let sig = sig_for(2.0);
        assert!(cache.fragment_get(&sig).is_none());
        let frag = fragment_for(&[1, 3]);
        let digest = cache.fragment_insert(sig.clone(), Arc::clone(&frag));
        assert!(cache.fragment_get(&sig).is_some());
        let (hit, d) = cache.fragment_get(&sig).expect("memoized");
        assert!(Arc::ptr_eq(&hit, &frag));
        assert_eq!(d, digest);
        assert_eq!(d, fragment_digest(&frag));
    }

    #[test]
    fn absorb_shared_accumulates_planner_counters() {
        let mut cache = ScheduleCache::default();
        cache.absorb_shared(&SharedStats {
            subtree_hits: 2,
            subtree_misses: 1,
            fragments_spliced: 5,
            tasks_planned: 3,
        });
        let stats = cache.stats();
        assert_eq!(stats.subtree_hits, 2);
        assert_eq!(stats.subtree_misses, 1);
        assert_eq!(stats.fragments_spliced, 5);
        assert_eq!(stats.tasks_planned, 3);
        assert_eq!(stats.misses, 0, "planner counters never count admissions");
    }

    #[test]
    fn fragment_digest_folds_one_word_per_field() {
        // Levels, ops, then the op's id, degree, each clone's three
        // components and its homes.
        let clone = [1.0f64, 0.5, 0.0].map(f64::to_bits);
        let mut words = vec![1, 1, 0, 2];
        words.extend(clone);
        words.extend(clone);
        words.extend([1, 3]);
        assert_eq!(
            fragment_digest(&fragment_for(&[1, 3])),
            WordFold::of(&words)
        );
    }

    #[test]
    fn fragment_digest_is_content_sensitive() {
        let a = fragment_for(&[0, 1]);
        let b = fragment_for(&[0, 2]);
        assert_ne!(fragment_digest(&a), fragment_digest(&b));
        assert_eq!(fragment_digest(&a), fragment_digest(&fragment_for(&[0, 1])));
    }

    #[test]
    fn digest_reflects_every_schedule_field() {
        let a = TreeScheduleResult {
            phases: vec![],
            response_time: 2.0,
        };
        let mut b = a.clone();
        assert_eq!(schedule_digest(&a), schedule_digest(&b));
        b.response_time = f64::from_bits(2.0f64.to_bits() + 1);
        assert_ne!(schedule_digest(&a), schedule_digest(&b));
    }
}
