//! Per-site fluid simulation of preemptable-resource sharing.
//!
//! Under the paper's assumptions A2 (no time-sharing overhead) and A3
//! (uniform resource usage), a clone with work vector `W` and intrinsic
//! duration `T_seq(W)` demands resource `i` at rate `W[i]/T_seq` while
//! running at full speed. A site scheduler assigns each resident clone a
//! *speed* `s ∈ (0, 1]`; running at speed `s` stretches the clone and
//! scales all its demand rates by `s`. Each of the site's `d` resources
//! has unit service capacity.
//!
//! The engine is event-driven: between clone completions, speeds are
//! constant; at each completion the policy recomputes speeds. Two policies
//! are provided:
//!
//! * [`SharingPolicy::EqualFinish`] — the site stretches all resident
//!   clones to the minimal common horizon `h = max(max_c r_c, l(R)/cap)`
//!   (with `R` the remaining aggregate load). With zero overhead this
//!   realizes Equation (2) *exactly*, which is how the simulator validates
//!   the paper's analytic model.
//! * [`SharingPolicy::FairShare`] — progressive filling: every clone
//!   starts at full speed and bottlenecked resources proportionally
//!   throttle their users. A more "operational" discipline that needs no
//!   global horizon.
//!
//! Setting `timeshare_overhead > 0` relaxes assumption A2: with `n` clones
//! resident, each resource's effective capacity drops to
//! `1 / (1 + ovh·(n−1))` — the paper's Section 8 remark that disks do not
//! time-share gracefully.

use mrs_core::vector::WorkVector;

/// How a site's resources are shared among resident clones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SharingPolicy {
    /// Stretch all clones to a common minimal finish horizon (realizes
    /// Equation (2) under A2/A3).
    EqualFinish,
    /// Progressive filling with proportional throttling at bottlenecks.
    FairShare,
}

/// Simulator configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimConfig {
    /// The sharing discipline.
    pub policy: SharingPolicy,
    /// Per-extra-clone capacity penalty (`0.0` = assumption A2 holds).
    pub timeshare_overhead: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            policy: SharingPolicy::EqualFinish,
            timeshare_overhead: 0.0,
        }
    }
}

/// One clone resident at a site.
#[derive(Clone, Debug)]
pub struct SimClone {
    /// Caller-chosen tag reported back in completion events.
    pub tag: usize,
    /// The clone's work vector.
    pub work: WorkVector,
    /// The clone's intrinsic (full-speed) duration `T_seq(W)`.
    pub duration: f64,
}

/// The full-speed demand rates of a clone with work vector `work` and
/// intrinsic duration `duration`: `work.rates(duration)`. Without a
/// positive duration it is `work` itself, which [`SiteSim::insert`]
/// never reads for such a clone.
pub fn demand_rates(work: &WorkVector, duration: f64) -> WorkVector {
    if duration > 0.0 {
        work.rates(duration)
    } else {
        work.clone()
    }
}

/// A completion event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    /// The clone's tag.
    pub tag: usize,
    /// Simulated completion time.
    pub time: f64,
}

/// One clone resident at a site, as the sharing solver reads it.
#[derive(Clone, Debug)]
pub(crate) struct Active {
    pub(crate) tag: usize,
    /// Demand rates per resource at full speed (`W[i]/duration`).
    pub(crate) demand: WorkVector,
    /// Remaining intrinsic time.
    pub(crate) remaining: f64,
}

/// A clone evicted from a failed site, carrying the state the recovery
/// layer needs to re-pack its unfinished work elsewhere.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LostClone {
    /// The clone's caller-chosen tag.
    pub tag: usize,
    /// Remaining intrinsic (full-speed) time at the instant of loss.
    /// `remaining / duration` is the unfinished fraction of the clone's
    /// work vector.
    pub remaining: f64,
}

fn capacity_factor(overhead: f64, resident: usize) -> f64 {
    if resident <= 1 {
        1.0
    } else {
        1.0 / (1.0 + overhead * (resident as f64 - 1.0))
    }
}

/// Solves the sharing policy into caller-owned buffers: `out` receives one
/// speed per active clone, `scratch` is the `d`-sized accumulator the
/// solver reuses (load for EqualFinish, utilization for FairShare). The
/// arithmetic — accumulation order included — is bit-identical to the
/// original allocating solver, so cached results equal recomputed ones.
pub(crate) fn speeds_into(
    active: &[Active],
    config: &SimConfig,
    d: usize,
    out: &mut Vec<f64>,
    scratch: &mut Vec<f64>,
) {
    let cap = capacity_factor(config.timeshare_overhead, active.len());
    out.clear();
    scratch.clear();
    scratch.resize(d, 0.0);
    match config.policy {
        SharingPolicy::EqualFinish => {
            // Horizon: slowest clone, or the most congested resource under
            // the reduced capacity.
            let max_remaining = active.iter().map(|a| a.remaining).fold(0.0, f64::max);
            for a in active {
                for (l, dem) in scratch.iter_mut().zip(a.demand.components()) {
                    *l += a.remaining * dem;
                }
            }
            let congested = scratch.iter().copied().fold(0.0, f64::max) / cap;
            let horizon = max_remaining.max(congested);
            if horizon <= 0.0 {
                out.resize(active.len(), 1.0);
                return;
            }
            out.extend(active.iter().map(|a| (a.remaining / horizon).min(1.0)));
        }
        SharingPolicy::FairShare => {
            out.resize(active.len(), 1.0);
            // Progressive filling: at most d bottlenecks to resolve.
            for _ in 0..=d {
                for u in scratch.iter_mut() {
                    *u = 0.0;
                }
                for (a, &sc) in active.iter().zip(out.iter()) {
                    for (u, dem) in scratch.iter_mut().zip(a.demand.components()) {
                        *u += sc * dem;
                    }
                }
                let (b, &u_max) = match scratch.iter().enumerate().max_by(|x, y| x.1.total_cmp(y.1))
                {
                    Some(x) => x,
                    None => break,
                };
                if u_max <= cap * (1.0 + 1e-12) {
                    break;
                }
                let scale = cap / u_max;
                for (a, sc) in active.iter().zip(out.iter_mut()) {
                    if a.demand[b] > 0.0 {
                        *sc *= scale;
                    }
                }
            }
        }
    }
}

/// A stateful, incrementally steppable fluid site: the online runtime's
/// window into the engine.
///
/// Where [`simulate_site`] runs a fixed clone population from time zero
/// to drain, `SiteSim` exposes the clock: clones may be inserted at any
/// virtual time ([`SiteSim::add_clone`]), the next completion instant can
/// be queried ([`SiteSim::next_completion_time`]), and the site can be
/// advanced to an arbitrary time ([`SiteSim::advance_to`]) — between
/// events the fluid speeds are constant, so advancing is exact, not
/// approximate. The site also integrates *actual* per-resource busy time
/// (`Σ_c s_c·demand_c[r]·dt`), the ground truth behind utilization
/// metrics.
#[derive(Debug)]
pub struct SiteSim {
    config: SimConfig,
    d: usize,
    now: f64,
    active: Vec<Active>,
    /// Sum of the resident clones' demand rates: added on insert,
    /// subtracted (clamped at zero) when a clone finishes or is evicted,
    /// zeroed by a crash.
    committed: WorkVector,
    busy: Vec<f64>,
    /// Speed multiplier in `(0, 1]`: a straggler site stretches every
    /// resident clone by `1/rate`. At `1.0` the arithmetic is bit-exact
    /// with a rate-free build (`x * 1.0 == x` in IEEE 754).
    rate: f64,
    /// A crashed site holds no clones and accepts none until restored.
    down: bool,
    /// Cached solved speed vector for the current population state,
    /// valid while `speeds_valid`. Any mutation of the inputs the solver
    /// reads (the active set, a clone's `remaining`) clears the flag;
    /// repeated queries between events reuse the buffer allocation-free.
    speeds_buf: Vec<f64>,
    /// `d`-sized accumulator the speed solver reuses.
    scratch: Vec<f64>,
    speeds_valid: bool,
    /// Peak normalized utilization per resource observed over the site's
    /// lifetime: `max_t Σ_c s_c·demand_c[i] / cap(n_t)`. A feasible
    /// sharing solution keeps every component ≤ 1 (up to float noise) —
    /// the quantity `mrs-audit` checks end-to-end.
    peak_util: Vec<f64>,
    /// Exact integral of normalized utilization per resource:
    /// `∫ u_i(t)/cap(n_t) dt` over the site's lifetime. Because the
    /// trajectory is piecewise constant between events, accumulating
    /// `(u/cap)·step` per step is the integral, not an approximation;
    /// dividing by the horizon bounds *average* over-commitment the same
    /// way `peak_util` bounds the instantaneous kind.
    util_integral: Vec<f64>,
    /// Sharing-policy solves so far (see [`SiteSim::speed_solves`]).
    speed_solves: u64,
    /// Constant-speed steps so far (see [`SiteSim::fluid_steps`]).
    fluid_steps: u64,
}

impl SiteSim {
    /// An idle site of dimensionality `d` at virtual time zero.
    pub fn new(config: SimConfig, d: usize) -> Self {
        SiteSim {
            config,
            d,
            now: 0.0,
            active: Vec::new(),
            committed: WorkVector::zeros(d),
            busy: vec![0.0; d],
            rate: 1.0,
            down: false,
            speeds_buf: Vec::new(),
            scratch: Vec::new(),
            speeds_valid: false,
            peak_util: vec![0.0; d],
            util_integral: vec![0.0; d],
            speed_solves: 0,
            fluid_steps: 0,
        }
    }

    /// Re-solves the sharing policy into `speeds_buf` unless the cached
    /// solution is still valid. A cache hit is trivially bit-exact: the
    /// flag only survives while every solver input is untouched, so a
    /// recomputation would read identical state.
    fn ensure_speeds(&mut self) {
        if !self.speeds_valid {
            speeds_into(
                &self.active,
                &self.config,
                self.d,
                &mut self.speeds_buf,
                &mut self.scratch,
            );
            self.speeds_valid = true;
            self.speed_solves += 1;
        }
    }

    /// The site's current virtual time.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Resource dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of clones currently resident.
    #[inline]
    pub fn resident(&self) -> usize {
        self.active.len()
    }

    /// Committed load `l(W)`: the largest component of the resident
    /// clones' summed demand rates. Above `1.0` the site time-shares.
    #[inline]
    pub fn load(&self) -> f64 {
        self.committed.length()
    }

    /// Integrated busy time per resource since construction.
    #[inline]
    pub fn busy(&self) -> &[f64] {
        &self.busy
    }

    /// Peak normalized utilization per resource so far: the largest
    /// instantaneous share of the (overhead-reduced) capacity any
    /// resource ever reached. Fluid-sharing feasibility keeps every
    /// component ≤ 1 up to float noise.
    #[inline]
    pub fn peak_util(&self) -> &[f64] {
        &self.peak_util
    }

    /// Exact integral of normalized utilization per resource since
    /// construction (see the field docs). Dividing by the run horizon
    /// yields the site's time-average utilization, which feasible fluid
    /// sharing keeps ≤ 1 — the average-over-commitment bound `mrs-audit`
    /// checks alongside the peak.
    #[inline]
    pub fn util_integral(&self) -> &[f64] {
        &self.util_integral
    }

    /// How many times the site has solved its sharing policy: a
    /// deterministic work counter (one per population change that a
    /// completion query or an advance then read).
    #[inline]
    pub fn speed_solves(&self) -> u64 {
        self.speed_solves
    }

    /// How many constant-speed intervals [`SiteSim::advance_to`] has
    /// stepped through: a deterministic work counter.
    #[inline]
    pub fn fluid_steps(&self) -> u64 {
        self.fluid_steps
    }

    /// The site's speed multiplier (see [`SiteSim::set_rate`]).
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Marks the site a straggler: every resident clone's realized speed
    /// is scaled by `rate`, stretching all work by `1/rate`. The default
    /// `1.0` is an exact no-op.
    ///
    /// # Panics
    /// Panics unless `rate` is finite and in `(0, 1]`.
    pub fn set_rate(&mut self, rate: f64) {
        assert!(
            rate.is_finite() && rate > 0.0 && rate <= 1.0,
            "site rate must lie in (0, 1], got {rate}"
        );
        self.rate = rate;
    }

    /// Whether the site is currently crashed.
    #[inline]
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Crashes the site at the current virtual time: every resident clone
    /// is evicted and returned (in residency order) with its remaining
    /// intrinsic time, and the site refuses new clones until
    /// [`SiteSim::restore`]. Busy-time integrals stop accumulating — lost
    /// partial work was still real work, so the integral up to now stays.
    pub fn fail(&mut self) -> Vec<LostClone> {
        self.down = true;
        self.speeds_valid = false;
        self.committed.set_zero();
        self.active
            .drain(..)
            .map(|a| LostClone {
                tag: a.tag,
                remaining: a.remaining,
            })
            .collect()
    }

    /// Brings a crashed site back, empty and idle, at the current clock.
    pub fn restore(&mut self) {
        self.down = false;
    }

    /// Evicts the clone tagged `tag` (e.g. a deadline abort), returning
    /// its remaining intrinsic time, or `None` if no such clone is
    /// resident. Remaining clones keep their progress; speeds recompute
    /// at the next event as usual.
    pub fn remove_clone(&mut self, tag: usize) -> Option<LostClone> {
        let idx = self.active.iter().position(|a| a.tag == tag)?;
        let a = self.active.remove(idx);
        self.committed.remove(&a.demand);
        self.speeds_valid = false;
        Some(LostClone {
            tag: a.tag,
            remaining: a.remaining,
        })
    }

    /// Inserts a clone at the current virtual time. A clone with zero
    /// intrinsic duration completes immediately: its completion (stamped
    /// `now`) is returned instead of being enqueued.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch, a non-finite/negative duration,
    /// or a crashed site.
    pub fn add_clone(&mut self, clone: &SimClone) -> Option<Completion> {
        let demand = demand_rates(&clone.work, clone.duration);
        self.insert(clone.tag, &demand, clone.duration)
    }

    /// Inserts the clone tagged `tag` with full-speed demand rates
    /// `demand` (its work vector's [`WorkVector::rates`] over
    /// `duration`) at the current virtual time: the one insert path,
    /// so a caller placing a run of equal clones computes the rates
    /// once. A zero-duration clone completes immediately, as in
    /// [`SiteSim::add_clone`], and its `demand` is not read.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch, a non-finite/negative duration,
    /// or a crashed site.
    pub fn insert(&mut self, tag: usize, demand: &WorkVector, duration: f64) -> Option<Completion> {
        assert!(!self.down, "cannot place a clone on a crashed site");
        assert_eq!(
            demand.dim(),
            self.d,
            "clone dimensionality must match the site"
        );
        assert!(
            duration.is_finite() && duration >= 0.0,
            "clone duration must be finite and non-negative"
        );
        if duration <= 0.0 {
            return Some(Completion {
                tag,
                time: self.now,
            });
        }
        self.committed.accumulate(demand);
        self.active.push(Active {
            tag,
            demand: demand.clone(),
            remaining: duration,
        });
        self.speeds_valid = false;
        None
    }

    /// The virtual time at which the next resident clone completes under
    /// the current population, or `None` for an idle site. Constant-speed
    /// fluid sharing makes this exact until the population next changes.
    /// Takes `&mut self` to reuse the cached speed solution; the visible
    /// state is unchanged.
    pub fn next_completion_time(&mut self) -> Option<f64> {
        if self.active.is_empty() {
            return None;
        }
        Some(self.now + self.next_dt())
    }

    /// The length of the constant-speed interval until the next resident
    /// clone completes, solving the sharing policy first if the cached
    /// speeds are stale. The one step kernel: the completion query and
    /// the advance read the same bits.
    ///
    /// # Panics
    /// Panics if the policy starved every clone (no positive speed).
    fn next_dt(&mut self) -> f64 {
        self.ensure_speeds();
        let mut dt = f64::INFINITY;
        for (a, &sc) in self.active.iter().zip(&self.speeds_buf) {
            let eff = sc * self.rate;
            if eff > 0.0 {
                dt = dt.min(a.remaining / eff);
            }
        }
        assert!(
            dt.is_finite(),
            "sharing policy starved every clone (all speeds zero)"
        );
        dt
    }

    /// Advances the site to virtual time `t`, appending any completions
    /// (stamped with their exact event times) to `out`. Advancing past
    /// several completions recomputes speeds at each, exactly like the
    /// batch loop.
    ///
    /// # Panics
    /// Panics if `t` precedes the current clock.
    pub fn advance_to(&mut self, t: f64, out: &mut Vec<Completion>) {
        assert!(
            t >= self.now - 1e-12 * self.now.abs().max(1.0),
            "cannot advance backwards: {t} < {}",
            self.now
        );
        while !self.active.is_empty() && self.now < t {
            self.fluid_steps += 1;
            let dt = self.next_dt();
            let cap = capacity_factor(self.config.timeshare_overhead, self.active.len());
            let full_step = dt <= t - self.now;
            let step = dt.min(t - self.now);
            // One pass over the clones steps them and sums the
            // interval's raw utilization `u` into `scratch` (free here:
            // the solver only uses it inside `ensure_speeds`, which
            // clears it on entry). Each sum keeps its clone order.
            self.scratch.clear();
            self.scratch.resize(self.d, 0.0);
            for (a, &sc) in self.active.iter_mut().zip(&self.speeds_buf) {
                let eff = sc * self.rate;
                a.remaining -= eff * step;
                for ((b, u), dem) in (self.busy.iter_mut())
                    .zip(self.scratch.iter_mut())
                    .zip(a.demand.components())
                {
                    *b += eff * dem * step;
                    *u += sc * dem;
                }
            }
            // The shares are constant across the step, so `u / cap` is
            // the interval's normalized utilization: its peak and its
            // exact integral contribution.
            for ((p, acc), &u) in (self.peak_util.iter_mut())
                .zip(self.util_integral.iter_mut())
                .zip(&self.scratch)
            {
                let norm = u / cap;
                if norm > *p {
                    *p = norm;
                }
                *acc += norm * step;
            }
            self.now += step;
            // The decrement above stales the cached speed solution.
            self.speeds_valid = false;
            // Sweep completions unconditionally: a partial step that lands
            // within floating-point noise of a completion must still
            // retire the clone, or callers advancing to a global event
            // time computed as `now + dt` elsewhere could spin.
            let mut i = 0;
            let mut finished_this_round = 0;
            while i < self.active.len() {
                if self.active[i].remaining <= 1e-12 * self.now.max(1.0) {
                    let a = self.active.swap_remove(i);
                    self.committed.remove(&a.demand);
                    out.push(Completion {
                        tag: a.tag,
                        time: self.now,
                    });
                    finished_this_round += 1;
                } else {
                    i += 1;
                }
            }
            if full_step {
                assert!(finished_this_round > 0, "event loop made no progress");
            } else if finished_this_round == 0 {
                // Partial advance: nobody finished, clock reached `t`.
                break;
            }
        }
        if self.active.is_empty() && t > self.now {
            // Idle gap: the clock still moves.
            self.now = t;
        }
    }
}

/// Simulates one site hosting `clones` from time zero until all complete.
///
/// Returns completions in time order; the site finish time is the last
/// completion (or `0.0` for no clones). Equivalent to driving a
/// [`SiteSim`] event by event until drained.
pub fn simulate_site(clones: &[SimClone], config: &SimConfig, d: usize) -> Vec<Completion> {
    let mut sim = SiteSim::new(*config, d);
    let mut completions: Vec<Completion> = Vec::with_capacity(clones.len());
    for c in clones {
        if let Some(done) = sim.add_clone(c) {
            completions.push(done);
        }
    }
    while let Some(t) = sim.next_completion_time() {
        sim.advance_to(t, &mut completions);
    }
    completions.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.tag.cmp(&b.tag)));
    completions
}

/// The site's finish time: the last completion.
pub fn site_finish(completions: &[Completion]) -> f64 {
    completions.iter().map(|c| c.time).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clone(tag: usize, w: &[f64], duration: f64) -> SimClone {
        SimClone {
            tag,
            work: WorkVector::from_slice(w),
            duration,
        }
    }

    #[test]
    fn lone_clone_runs_at_full_speed() {
        for policy in [SharingPolicy::EqualFinish, SharingPolicy::FairShare] {
            let cfg = SimConfig {
                policy,
                timeshare_overhead: 0.0,
            };
            let done = simulate_site(&[clone(0, &[3.0, 1.0], 4.0)], &cfg, 2);
            assert_eq!(done.len(), 1);
            assert!(
                (done[0].time - 4.0).abs() < 1e-9,
                "{policy:?}: {}",
                done[0].time
            );
        }
    }

    #[test]
    fn empty_site_finishes_immediately() {
        let done = simulate_site(&[], &SimConfig::default(), 3);
        assert!(done.is_empty());
        assert_eq!(site_finish(&done), 0.0);
    }

    #[test]
    fn zero_duration_clone_completes_at_zero() {
        let done = simulate_site(&[clone(7, &[0.0, 0.0], 0.0)], &SimConfig::default(), 2);
        assert_eq!(done, vec![Completion { tag: 7, time: 0.0 }]);
    }

    #[test]
    fn equal_finish_reproduces_paper_example() {
        // Section 5.2.2: (22, [10,15]) + (10, [10,5]) → site time 22;
        // (22, [10,15]) + (10, [5,10]) → 25.
        let cfg = SimConfig::default();
        let done = simulate_site(
            &[clone(0, &[10.0, 15.0], 22.0), clone(1, &[10.0, 5.0], 10.0)],
            &cfg,
            2,
        );
        assert!((site_finish(&done) - 22.0).abs() < 1e-9);

        let done = simulate_site(
            &[clone(0, &[10.0, 15.0], 22.0), clone(1, &[5.0, 10.0], 10.0)],
            &cfg,
            2,
        );
        assert!((site_finish(&done) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn fair_share_never_beats_congestion_bound() {
        let cfg = SimConfig {
            policy: SharingPolicy::FairShare,
            timeshare_overhead: 0.0,
        };
        let clones = [clone(0, &[10.0, 15.0], 22.0), clone(1, &[5.0, 10.0], 10.0)];
        let finish = site_finish(&simulate_site(&clones, &cfg, 2));
        // l(sum) = max(15, 25) = 25 and slowest clone is 22.
        assert!(finish >= 25.0 - 1e-9, "finish {finish}");
    }

    #[test]
    fn fair_share_uncongested_clones_run_at_full_speed() {
        let cfg = SimConfig {
            policy: SharingPolicy::FairShare,
            timeshare_overhead: 0.0,
        };
        // Combined peak demand ≤ 1 on each resource: no throttling.
        let clones = [
            clone(0, &[2.0, 0.0], 10.0), // demands 0.2 on r0
            clone(1, &[0.0, 3.0], 10.0), // demands 0.3 on r1
        ];
        let done = simulate_site(&clones, &cfg, 2);
        assert!((site_finish(&done) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_slows_sharing_but_not_solo() {
        let cfg = SimConfig {
            policy: SharingPolicy::EqualFinish,
            timeshare_overhead: 0.5,
        };
        let solo = site_finish(&simulate_site(&[clone(0, &[8.0, 0.0], 8.0)], &cfg, 2));
        assert!((solo - 8.0).abs() < 1e-9, "a lone clone pays no overhead");
        // Two congesting clones pay the penalty: aggregate CPU work 16
        // at capacity 1/(1+0.5) → at least 24 time units.
        let both = site_finish(&simulate_site(
            &[clone(0, &[8.0, 0.0], 8.0), clone(1, &[8.0, 0.0], 8.0)],
            &cfg,
            2,
        ));
        assert!(both >= 16.0, "overhead must bite: {both}");
    }

    #[test]
    fn completions_sorted_by_time() {
        let cfg = SimConfig {
            policy: SharingPolicy::FairShare,
            timeshare_overhead: 0.0,
        };
        let clones = [
            clone(0, &[1.0, 0.0], 10.0),
            clone(1, &[0.5, 0.0], 2.0),
            clone(2, &[0.2, 0.0], 1.0),
        ];
        let done = simulate_site(&clones, &cfg, 2);
        for pair in done.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        assert_eq!(done.len(), 3);
    }

    #[test]
    #[should_panic(expected = "dimensionality")]
    fn dimension_mismatch_panics() {
        simulate_site(&[clone(0, &[1.0], 1.0)], &SimConfig::default(), 2);
    }

    #[test]
    fn site_sim_advances_clock_through_idle_gaps() {
        let mut sim = SiteSim::new(SimConfig::default(), 2);
        let mut out = Vec::new();
        sim.advance_to(5.0, &mut out);
        assert_eq!(sim.now(), 5.0);
        assert!(out.is_empty());
        assert_eq!(sim.resident(), 0);
    }

    #[test]
    fn site_sim_staggered_insertion_stretches_later_clone() {
        // One CPU-bound clone alone for 5s, then a second identical clone
        // arrives: from t=5 both share the congested CPU. EqualFinish
        // stretches to the common horizon: remaining work 5+10 at unit
        // capacity → both done at t=20.
        let cfg = SimConfig::default();
        let mut sim = SiteSim::new(cfg, 2);
        let mut out = Vec::new();
        assert!(sim.add_clone(&clone(0, &[10.0, 0.0], 10.0)).is_none());
        sim.advance_to(5.0, &mut out);
        assert!(out.is_empty());
        assert!(sim.add_clone(&clone(1, &[10.0, 0.0], 10.0)).is_none());
        while let Some(t) = sim.next_completion_time() {
            sim.advance_to(t, &mut out);
        }
        assert_eq!(out.len(), 2);
        let last = out.iter().map(|c| c.time).fold(0.0, f64::max);
        assert!((last - 20.0).abs() < 1e-9, "finish {last}");
    }

    #[test]
    fn site_sim_busy_integral_matches_work() {
        // Total integrated busy time per resource equals the work actually
        // processed, independent of sharing.
        let cfg = SimConfig::default();
        let mut sim = SiteSim::new(cfg, 2);
        let mut out = Vec::new();
        sim.add_clone(&clone(0, &[10.0, 15.0], 22.0));
        sim.add_clone(&clone(1, &[10.0, 5.0], 10.0));
        while let Some(t) = sim.next_completion_time() {
            sim.advance_to(t, &mut out);
        }
        assert!(
            (sim.busy()[0] - 20.0).abs() < 1e-9,
            "cpu busy {}",
            sim.busy()[0]
        );
        assert!(
            (sim.busy()[1] - 20.0).abs() < 1e-9,
            "r1 busy {}",
            sim.busy()[1]
        );
    }

    #[test]
    fn util_integral_is_the_hand_computed_normalized_integral() {
        // Two clones share the CPU at timeshare overhead 0.5, so the
        // site's capacity is 1 / 1.5. Clone 0 also reads r1 at rate 0.5.
        // EqualFinish stretches both to 16 / (1 / 1.5) = 24 s at speed
        // 1/3: the CPU runs at u = 2/3 = cap (normalized 1) and r1 at
        // u = 1/6 (normalized 1/4), so the integrals are 24 and 6. Without
        // the division by `cap` they would read 16 and 4.
        let cfg = SimConfig {
            timeshare_overhead: 0.5,
            ..SimConfig::default()
        };
        let mut sim = SiteSim::new(cfg, 2);
        sim.add_clone(&clone(0, &[8.0, 4.0], 8.0));
        sim.add_clone(&clone(1, &[8.0, 0.0], 8.0));
        let mut out = Vec::new();
        while let Some(t) = sim.next_completion_time() {
            sim.advance_to(t, &mut out);
        }
        assert_eq!(out.len(), 2);
        assert!((sim.now() - 24.0).abs() < 1e-9, "horizon {}", sim.now());
        for (r, want) in [24.0, 6.0].into_iter().enumerate() {
            let got = sim.util_integral()[r];
            assert!((got - want).abs() < 1e-9, "r{r} integral {got}");
        }
    }

    #[test]
    fn average_utilization_never_exceeds_one() {
        // Oversubscribe the site: the fluid sharing time-shares, so both
        // the peak and the time-average normalized utilization stay ≤ 1.
        let mut sim = SiteSim::new(SimConfig::default(), 2);
        sim.add_clone(&clone(0, &[8.0, 0.0], 8.0));
        sim.add_clone(&clone(1, &[8.0, 0.0], 8.0));
        let mut out = Vec::new();
        while let Some(t) = sim.next_completion_time() {
            sim.advance_to(t, &mut out);
        }
        let horizon = sim.now();
        assert!(horizon > 0.0);
        let avg = sim.util_integral()[0] / horizon;
        assert!(avg <= 1.0 + 1e-9, "average utilization {avg}");
        assert!(avg > 0.9, "oversubscribed site should be near-saturated");
    }

    #[test]
    fn site_sim_zero_duration_completes_inline() {
        let mut sim = SiteSim::new(SimConfig::default(), 2);
        let mut out = Vec::new();
        sim.advance_to(3.0, &mut out);
        let done = sim.add_clone(&clone(9, &[0.0, 0.0], 0.0)).unwrap();
        assert_eq!(done.tag, 9);
        assert_eq!(done.time, 3.0);
    }

    #[test]
    fn straggler_rate_stretches_completions_exactly() {
        let mut sim = SiteSim::new(SimConfig::default(), 2);
        sim.set_rate(0.5);
        assert_eq!(sim.rate(), 0.5);
        sim.add_clone(&clone(0, &[4.0, 0.0], 4.0));
        let t = sim.next_completion_time().unwrap();
        assert!((t - 8.0).abs() < 1e-9, "half-rate doubles duration: {t}");
        let mut out = Vec::new();
        sim.advance_to(t, &mut out);
        assert_eq!(out.len(), 1);
        // Busy integral records realized (rate-scaled) demand: the work
        // processed is unchanged, only spread over twice the time.
        assert!((sim.busy()[0] - 4.0).abs() < 1e-9, "busy {}", sim.busy()[0]);
    }

    #[test]
    fn full_rate_is_bit_exact_with_default() {
        let drive = |set: bool| {
            let mut sim = SiteSim::new(SimConfig::default(), 2);
            if set {
                sim.set_rate(1.0);
            }
            sim.add_clone(&clone(0, &[10.0, 15.0], 22.0));
            sim.add_clone(&clone(1, &[10.0, 5.0], 10.0));
            let mut out = Vec::new();
            while let Some(t) = sim.next_completion_time() {
                sim.advance_to(t, &mut out);
            }
            (
                out.iter().map(|c| c.time.to_bits()).collect::<Vec<_>>(),
                sim.busy().iter().map(|b| b.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(drive(false), drive(true));
    }

    #[test]
    fn fail_evicts_partial_clones_and_restore_reopens() {
        let mut sim = SiteSim::new(SimConfig::default(), 2);
        let mut out = Vec::new();
        sim.add_clone(&clone(0, &[8.0, 0.0], 8.0));
        sim.add_clone(&clone(1, &[2.0, 0.0], 2.0));
        sim.advance_to(1.0, &mut out);
        assert!(out.is_empty());
        let lost = sim.fail();
        assert!(sim.is_down());
        assert_eq!(sim.resident(), 0);
        assert_eq!(sim.next_completion_time(), None);
        assert_eq!(lost.len(), 2);
        assert_eq!(lost[0].tag, 0);
        assert_eq!(lost[1].tag, 1);
        // EqualFinish shares: total demand 1.25 on CPU → horizon 10 from
        // t=0, so after 1s clone 0 ran at 8/10 and clone 1 at 2/10.
        assert!((lost[0].remaining - 7.2).abs() < 1e-9, "{:?}", lost[0]);
        assert!((lost[1].remaining - 1.8).abs() < 1e-9, "{:?}", lost[1]);
        // The clock still advances through the outage; busy stays frozen.
        let busy = sim.busy()[0];
        sim.advance_to(5.0, &mut out);
        assert_eq!(sim.now(), 5.0);
        assert_eq!(sim.busy()[0], busy);
        sim.restore();
        assert!(!sim.is_down());
        assert!(sim.add_clone(&clone(2, &[1.0, 0.0], 1.0)).is_none());
        assert_eq!(sim.resident(), 1);
    }

    #[test]
    #[should_panic(expected = "crashed site")]
    fn down_site_refuses_clones() {
        let mut sim = SiteSim::new(SimConfig::default(), 2);
        sim.fail();
        sim.add_clone(&clone(0, &[1.0, 0.0], 1.0));
    }

    #[test]
    fn remove_clone_evicts_by_tag() {
        let mut sim = SiteSim::new(SimConfig::default(), 2);
        sim.add_clone(&clone(3, &[4.0, 0.0], 4.0));
        sim.add_clone(&clone(9, &[4.0, 0.0], 4.0));
        assert_eq!(sim.remove_clone(7), None);
        let lost = sim.remove_clone(3).expect("tag 3 resident");
        assert_eq!(lost.tag, 3);
        assert!((lost.remaining - 4.0).abs() < 1e-12);
        assert_eq!(sim.resident(), 1);
        // The survivor now runs alone at full speed.
        let t = sim.next_completion_time().unwrap();
        assert!((t - 4.0).abs() < 1e-9, "survivor finish {t}");
    }

    #[test]
    fn site_sim_load_tracks_population() {
        // FairShare runs both clones at full speed, so the shorter one
        // finishes first.
        let cfg = SimConfig {
            policy: SharingPolicy::FairShare,
            ..SimConfig::default()
        };
        let mut sim = SiteSim::new(cfg, 2);
        assert_eq!(sim.load(), 0.0);
        // Zero-duration clones complete inline and commit nothing.
        assert!(sim.add_clone(&clone(5, &[0.0, 0.0], 0.0)).is_some());
        assert_eq!(sim.load(), 0.0);
        sim.add_clone(&clone(0, &[4.0, 2.0], 8.0)); // demand [0.5, 0.25]
        sim.add_clone(&clone(1, &[1.0, 3.0], 4.0)); // demand [0.25, 0.75]
        assert_eq!(sim.load(), 1.0, "l_inf of [0.75, 1.0]");
        let mut out = Vec::new();
        let t = sim.next_completion_time().unwrap();
        sim.advance_to(t, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(sim.load(), 0.5);
        // Eviction releases the survivor: an idle site reads exactly 0.
        assert!(sim.remove_clone(0).is_some());
        assert_eq!(sim.load(), 0.0);
        // A crash zeroes the committed load outright.
        sim.add_clone(&clone(2, &[6.0, 3.0], 3.0)); // demand [2.0, 1.0]
        assert_eq!(sim.load(), 2.0);
        sim.fail();
        assert_eq!(sim.load(), 0.0);
    }
}

#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_clones() -> impl Strategy<Value = Vec<SimClone>> {
        proptest::collection::vec(
            (proptest::collection::vec(0.0f64..10.0, 3), 0.0f64..1.0),
            1..6,
        )
        .prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (w, slack))| {
                    let wv = WorkVector::new(w);
                    // Duration between max (perfect overlap) and sum.
                    let duration = wv.length() + slack * (wv.total() - wv.length());
                    SimClone {
                        tag: i,
                        work: wv,
                        duration,
                    }
                })
                .collect()
        })
    }

    proptest! {
        /// Equation (2): under A2/A3 the EqualFinish site finish time is
        /// exactly max(max_c T_c, l(Σ W_c)).
        #[test]
        fn equal_finish_matches_equation_2(clones in arb_clones()) {
            let cfg = SimConfig::default();
            let finish = site_finish(&simulate_site(&clones, &cfg, 3));
            let max_t = clones.iter().map(|c| c.duration).fold(0.0, f64::max);
            let l = WorkVector::set_length(clones.iter().map(|c| &c.work).collect::<Vec<_>>());
            let expected = max_t.max(l);
            prop_assert!((finish - expected).abs() <= 1e-6 * expected.max(1.0),
                "sim {finish} vs Eq(2) {expected}");
        }

        /// Any policy respects the two lower bounds of Equation (2).
        #[test]
        fn all_policies_respect_lower_bounds(clones in arb_clones()) {
            for policy in [SharingPolicy::EqualFinish, SharingPolicy::FairShare] {
                let cfg = SimConfig { policy, timeshare_overhead: 0.0 };
                let finish = site_finish(&simulate_site(&clones, &cfg, 3));
                let max_t = clones.iter().map(|c| c.duration).fold(0.0, f64::max);
                let l = WorkVector::set_length(clones.iter().map(|c| &c.work).collect::<Vec<_>>());
                prop_assert!(finish + 1e-7 * finish.max(1.0) >= max_t.max(l));
            }
        }

        /// Overhead can only hurt.
        #[test]
        fn overhead_monotone(clones in arb_clones(), ovh in 0.0f64..2.0) {
            let base = site_finish(&simulate_site(&clones, &SimConfig::default(), 3));
            let cfg = SimConfig { policy: SharingPolicy::EqualFinish, timeshare_overhead: ovh };
            let slowed = site_finish(&simulate_site(&clones, &cfg, 3));
            prop_assert!(slowed + 1e-9 >= base);
        }
    }
}
