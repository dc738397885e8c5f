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
//!   wrong schedule. The shadow-compute test
//!   ([`RuntimeConfig::verify_cache`](crate::runtime::RuntimeConfig::verify_cache))
//!   enforces this by re-planning on hits and comparing
//!   [`schedule_digest`]s.
//! * **Footprint invalidation.** `tree_schedule` plans against the full
//!   site set; the runtime's recovery layer reacts to crashes by
//!   re-packing *around* dead sites at dispatch. A cached schedule is
//!   still the correct *admission* schedule after any fault, but the
//!   cache semantics stay conservative: never serve a plan whose own
//!   environment has shifted. Each entry records its *site footprint* —
//!   the sorted, deduplicated set of homes its clones land on — and each
//!   site remembers the epoch of its last availability change
//!   ([`ScheduleCache::bump_epoch`] takes the changed site). A lookup
//!   re-validates the entry against its footprint: if any touched site
//!   changed after the entry was inserted, the entry is evicted
//!   (counted in [`CacheStats::stale_evictions`]) and the lookup counts
//!   as a miss. Faults on sites a plan never touches leave it servable —
//!   the previous scheme cleared the whole table on every bump, which on
//!   fault-heavy streams threw away every unrelated template. Rate
//!   changes would bump epochs too, but straggler rates are fixed at
//!   construction in the current runtime.

use mrs_core::operator::Placement;
use mrs_core::shared::{ScheduleFragment, SharedStats, SubtreeSig};
use mrs_core::tree::{TreeProblem, TreeScheduleResult};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// Counters describing how a run's admissions hit the schedule cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Admissions served from the cache (no `tree_schedule` call).
    pub hits: u64,
    /// Admissions that computed a fresh plan — the run's re-plan count.
    pub misses: u64,
    /// Epoch bumps: per-site environment changes (site crash or
    /// restore).
    pub epoch_bumps: u64,
    /// Entries evicted at lookup because a site in their footprint
    /// changed after insertion.
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
}

/// One memoized value stamped with the global epoch it was inserted
/// under and the sorted, deduplicated set of sites it touches. The
/// whole-plan table and the subtree-fragment memo both store these and
/// share [`lookup`], so they share one stale check and one eviction.
#[derive(Clone, Debug)]
struct Entry<V> {
    value: V,
    insert_epoch: u64,
    touched: Vec<usize>,
}

/// Looks up `key` against the per-site change epochs. An entry whose
/// footprint shifted (some touched site changed after insertion) is
/// evicted, counted in `stale_evictions`, and reported as absent.
fn lookup<K: Eq + Hash, V: Clone>(
    table: &mut HashMap<K, Entry<V>>,
    key: &K,
    site_epoch: &[u64],
    stale_evictions: &mut u64,
) -> Option<Entry<V>> {
    let entry = table.get(key)?;
    let fresh = entry
        .touched
        .iter()
        .all(|&s| site_epoch.get(s).copied().unwrap_or(0) <= entry.insert_epoch);
    if fresh {
        return Some(entry.clone());
    }
    table.remove(key);
    *stale_evictions += 1;
    None
}

/// The whole-plan table from [`PlanSignature`] to the schedule plus the
/// subtree-fragment memo, both with per-site invalidation. See the
/// [module docs](self).
#[derive(Debug, Default)]
pub struct ScheduleCache {
    entries: HashMap<PlanSignature, Entry<Arc<TreeScheduleResult>>>,
    /// Subtree-grained memo for the shared planner, keyed by canonical
    /// subtree signature; each fragment carries its bit-level digest
    /// (see [`fragment_digest`]), replayed by the sharing-coherence
    /// audit.
    subtree: HashMap<SubtreeSig, Entry<(Arc<ScheduleFragment>, u64)>>,
    /// Global epoch: incremented on every environment change.
    epoch: u64,
    /// Per site, the global epoch of its last availability change (`0` =
    /// never changed).
    site_epoch: Vec<u64>,
    stats: CacheStats,
}

impl ScheduleCache {
    /// An empty cache at epoch 0 over `sites` sites.
    pub fn new(sites: usize) -> Self {
        ScheduleCache {
            site_epoch: vec![0; sites],
            ..ScheduleCache::default()
        }
    }

    /// The current global epoch (bumped on every environment change).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch of `site`'s last availability change (`0` if it never
    /// changed).
    pub fn site_epoch(&self, site: usize) -> u64 {
        self.site_epoch.get(site).copied().unwrap_or(0)
    }

    /// Hit/miss/bump counters so far.
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

    /// Looks up `sig`, counting a hit or miss. An entry whose footprint
    /// shifted (some touched site bumped after insertion) is evicted and
    /// counted as both a miss and a stale eviction. A valid hit returns
    /// the schedule, the epoch it was inserted under, and its footprint
    /// (both surfaced to the cache-coherence audit).
    pub fn get(
        &mut self,
        sig: &PlanSignature,
    ) -> Option<(Arc<TreeScheduleResult>, u64, Vec<usize>)> {
        let Some(entry) = lookup(
            &mut self.entries,
            sig,
            &self.site_epoch,
            &mut self.stats.stale_evictions,
        ) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        Some((entry.value, entry.insert_epoch, entry.touched))
    }

    /// Records a freshly computed schedule under `sig`, stamped with the
    /// current epoch and its site footprint (sorted and deduplicated
    /// here, so callers can pass raw home lists).
    pub fn insert(
        &mut self,
        sig: PlanSignature,
        schedule: Arc<TreeScheduleResult>,
        mut touched: Vec<usize>,
    ) {
        touched.sort_unstable();
        touched.dedup();
        let entry = Entry {
            value: schedule,
            insert_epoch: self.epoch,
            touched,
        };
        self.entries.insert(sig, entry);
    }

    /// Number of memoized subtree fragments.
    pub fn fragments_len(&self) -> usize {
        self.subtree.len()
    }

    /// Looks up a subtree fragment. A stale entry (some touched site
    /// bumped after insertion) is evicted, counted in
    /// [`CacheStats::stale_evictions`], and reported as a miss. A valid
    /// hit returns the fragment plus the coherence metadata the
    /// sharing audit events carry (insert epoch, footprint, digest).
    /// Hit/miss *counters* are charged by [`ScheduleCache::absorb_shared`]
    /// from the planner's own tally, not here, so a splice is counted
    /// exactly once.
    pub fn fragment_get(
        &mut self,
        sig: &SubtreeSig,
    ) -> Option<(Arc<ScheduleFragment>, u64, Vec<usize>, u64)> {
        let Entry {
            value: (frag, digest),
            insert_epoch,
            touched,
        } = lookup(
            &mut self.subtree,
            sig,
            &self.site_epoch,
            &mut self.stats.stale_evictions,
        )?;
        Some((frag, insert_epoch, touched, digest))
    }

    /// Memoizes a freshly computed subtree fragment, stamped with the
    /// current epoch, its own footprint, and its bit-level digest.
    /// Returns the digest so the caller can log it.
    pub fn fragment_insert(&mut self, sig: SubtreeSig, frag: Arc<ScheduleFragment>) -> u64 {
        let digest = fragment_digest(&frag);
        let entry = Entry {
            touched: frag.footprint(),
            value: (frag, digest),
            insert_epoch: self.epoch,
        };
        self.subtree.insert(sig, entry);
        digest
    }

    /// Folds one cold plan's counters into the run's cache statistics.
    pub fn absorb_shared(&mut self, shared: &SharedStats) {
        self.stats.subtree_hits += shared.subtree_hits;
        self.stats.subtree_misses += shared.subtree_misses;
        self.stats.fragments_spliced += shared.fragments_spliced;
        self.stats.tasks_planned += shared.tasks_planned;
    }

    /// `site`'s availability changed (crash or restore): advance the
    /// global epoch and stamp the site. Entries are *not* cleared here;
    /// each is re-validated against its own footprint at lookup, so
    /// plans that never touch `site` stay servable.
    pub fn bump_epoch(&mut self, site: usize) {
        self.epoch += 1;
        self.stats.epoch_bumps += 1;
        if let Some(e) = self.site_epoch.get_mut(site) {
            *e = self.epoch;
        }
    }
}

/// The sorted, deduplicated set of sites a schedule's clones land on —
/// the footprint a cache entry is validated against.
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

/// A canonical bit-level digest of a schedule, used by the shadow-compute
/// verification to prove a cache hit byte-identical to a fresh plan. Walks
/// every numeric field: phase levels and makespans, operator degrees,
/// per-clone work-vector components, clone homes, and the total response
/// time — all floats as exact bit patterns.
pub fn schedule_digest(schedule: &TreeScheduleResult) -> Vec<u64> {
    let mut w = Vec::new();
    w.push(schedule.response_time.to_bits());
    w.push(schedule.phases.len() as u64);
    for phase in &schedule.phases {
        w.push(phase.level as u64);
        w.push(phase.makespan.to_bits());
        w.push(phase.schedule.ops.len() as u64);
        for (op, homes) in phase
            .schedule
            .ops
            .iter()
            .zip(&phase.schedule.assignment.homes)
        {
            w.push(op.spec.id.0 as u64);
            w.push(op.degree as u64);
            for clone in &op.clones {
                for i in 0..clone.dim() {
                    w.push(clone[i].to_bits());
                }
            }
            w.extend(homes.iter().map(|s| s.0 as u64));
        }
    }
    w
}

/// A 64-bit FNV-1a fold over a subtree fragment's complete numeric
/// content — per-level operator ids, degrees, clone work vectors (exact
/// bit patterns), and clone homes. The sharing-coherence audit replays
/// these digests: every splice of a signature must carry the digest its
/// insertion recorded, proving the spliced bytes are the memoized bytes.
pub fn fragment_digest(frag: &ScheduleFragment) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(frag.levels.len() as u64);
    for phase in &frag.levels {
        mix(phase.ops.len() as u64);
        for (op, homes) in phase.ops.iter().zip(&phase.assignment.homes) {
            mix(op.spec.id.0 as u64);
            mix(op.degree as u64);
            for clone in &op.clones {
                for i in 0..clone.dim() {
                    mix(clone[i].to_bits());
                }
            }
            for s in homes {
                mix(s.0 as u64);
            }
        }
    }
    h
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
    fn cache_counts_hits_misses_and_bumps() {
        let mut cache = ScheduleCache::new(4);
        let sig = PlanSignature::of(&problem(2.0), 0.7);
        assert!(cache.get(&sig).is_none());
        let sched = sched();
        cache.insert(sig.clone(), Arc::clone(&sched), vec![2, 0, 2]);
        assert_eq!(cache.len(), 1);
        let (hit, inserted, touched) = cache.get(&sig).expect("second lookup hits");
        assert!(Arc::ptr_eq(&hit, &sched));
        assert_eq!(inserted, cache.epoch(), "hit is epoch-coherent");
        assert_eq!(touched, vec![0, 2], "footprint sorted and deduplicated");
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
    fn bump_on_a_touched_site_evicts_at_lookup() {
        let mut cache = ScheduleCache::new(4);
        let sig = PlanSignature::of(&problem(2.0), 0.7);
        cache.get(&sig);
        cache.insert(sig.clone(), sched(), vec![0, 2]);
        cache.bump_epoch(2);
        assert_eq!(cache.epoch(), 1);
        assert_eq!(cache.site_epoch(2), 1);
        assert!(cache.get(&sig).is_none(), "footprint site changed");
        assert_eq!(cache.len(), 0, "stale entry evicted");
        let stats = cache.stats();
        assert_eq!(stats.epoch_bumps, 1);
        assert_eq!(stats.stale_evictions, 1);
        assert_eq!(stats.misses, 2);
    }

    #[test]
    fn bump_on_an_untouched_site_keeps_the_entry_servable() {
        let mut cache = ScheduleCache::new(4);
        let sig = PlanSignature::of(&problem(2.0), 0.7);
        cache.get(&sig);
        cache.insert(sig.clone(), sched(), vec![0, 2]);
        cache.bump_epoch(3);
        let (_, inserted, _) = cache.get(&sig).expect("footprint untouched by the bump");
        assert_eq!(inserted, 0, "entry still carries its insert epoch");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().stale_evictions, 0);
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
        use mrs_core::schedule::{Assignment, PhaseSchedule, ScheduledOperator};
        let spec = OperatorSpec::floating(
            OperatorId(0),
            OperatorKind::Scan,
            WorkVector::from_slice(&[1.0, 0.5, 0.0]),
            64.0,
        );
        let clones = vec![WorkVector::from_slice(&[1.0, 0.5, 0.0]); sites.len()];
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
    fn fragment_memo_round_trips_with_metadata() {
        let mut cache = ScheduleCache::new(4);
        let sig = sig_for(2.0);
        assert!(cache.fragment_get(&sig).is_none());
        let frag = fragment_for(&[1, 3]);
        let digest = cache.fragment_insert(sig.clone(), Arc::clone(&frag));
        assert_eq!(cache.fragments_len(), 1);
        let (hit, inserted, touched, d) = cache.fragment_get(&sig).expect("memoized");
        assert!(Arc::ptr_eq(&hit, &frag));
        assert_eq!(inserted, 0);
        assert_eq!(touched, vec![1, 3]);
        assert_eq!(d, digest);
        assert_eq!(d, fragment_digest(&frag));
    }

    #[test]
    fn fragment_footprint_bump_evicts_only_touching_fragments() {
        let mut cache = ScheduleCache::new(4);
        let hit_sig = sig_for(2.0);
        let miss_sig = sig_for(3.0);
        cache.fragment_insert(hit_sig.clone(), fragment_for(&[0]));
        cache.fragment_insert(miss_sig.clone(), fragment_for(&[2]));
        cache.bump_epoch(2);
        assert!(cache.fragment_get(&miss_sig).is_none(), "footprint hit");
        assert!(
            cache.fragment_get(&hit_sig).is_some(),
            "footprint untouched"
        );
        assert_eq!(cache.fragments_len(), 1);
        assert_eq!(cache.stats().stale_evictions, 1);
    }

    #[test]
    fn absorb_shared_accumulates_planner_counters() {
        let mut cache = ScheduleCache::new(2);
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
