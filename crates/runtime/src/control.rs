//! Adaptive overload control: a deterministic feedback controller that
//! trades intra-query parallelism against inter-query concurrency as
//! system pressure moves.
//!
//! The paper's schedulers hand every query its optimal clone degrees
//! regardless of load; under heavy arrival rates the runtime's only
//! defenses used to be shed-at-arrival and deadline aborts. The
//! [`Controller`] observes pressure signals that already flow through
//! the event loop — admission queue depth, the alive-site mean committed
//! load the fluid sites keep, and retry churn from the recovery path — and
//! actuates two levers:
//!
//! * a **parallelism governor**: a per-admission cap on clone degrees,
//!   applied *below* the paper-optimal `N_max(op, f)` knob before
//!   `schedule_with_degrees` runs (see
//!   [`PlanOptions::cap`](mrs_core::tree::PlanOptions::cap)).
//!   Each governor level halves the cap, so degraded plans spend less of
//!   the EA1 per-clone startup overhead and leave capacity for
//!   concurrent queries. The schedule cache keys on the governed cap, so
//!   degraded and full plans coexist;
//! * a **backpressure admission gate** that *defers* — rather than
//!   sheds — arrivals while the mean alive-site load sits inside the
//!   hysteresis band. Shedding is demoted to the last resort, guarded by
//!   hard bounds ([`ControllerConfig::shed_queue`],
//!   [`ControllerConfig::shed_load`]) that are disabled by default.
//!
//! Both levers move through **monotone hysteresis**: per observation the
//! governor level changes by at most one step (raised only under high
//! pressure, lowered only under low pressure, with `low < high`), and
//! the gate engages at [`ControllerConfig::load_high`] but releases only
//! at [`ControllerConfig::load_low`]. Every state change is recorded as
//! an [`AuditEvent::ControlDecision`](crate::trace::AuditEvent) carrying
//! the signal snapshot that justified it, so `mrs-audit` replays the
//! decision sequence from the trace alone.
//!
//! Determinism: the controller is a pure function of
//! `(state, PressureSample)`. Every signal in the sample is taken from
//! the event loop's serial state, so decisions are bit-exact and
//! `--jobs` invariant. With [`ControllerConfig::enabled`] false (the default) the
//! controller is never consulted and the runtime is byte-identical to
//! its pre-controller behavior.

/// Feedback-controller knobs. Disabled by default; every threshold is a
/// pure constant so the controller stays a deterministic function of the
/// trace-visible state.
#[derive(Clone, Debug)]
pub struct ControllerConfig {
    /// Master switch. `false` (default) never consults the controller —
    /// byte-identical to the pre-controller runtime.
    pub enabled: bool,
    /// Mean alive-site load at or above which the backpressure gate
    /// engages and the governor may raise its level.
    pub load_high: f64,
    /// Mean alive-site load at or below which the gate releases and the
    /// governor may lower its level. Must be `< load_high` (hysteresis).
    pub load_low: f64,
    /// Queue-plus-retry backlog at or above which the governor raises
    /// its level (one step per observation).
    pub backlog_high: usize,
    /// Queue-plus-retry backlog at or below which the governor may lower
    /// its level. Must be `< backlog_high`.
    pub backlog_low: usize,
    /// Maximum governor level. Level `k` caps floating clone degrees at
    /// `max(min_cap, sites >> k)`; level 0 is uncapped.
    pub max_level: u32,
    /// Floor for the governed degree cap (≥ 1).
    pub min_cap: usize,
    /// Last-resort shed: refuse an arrival when the queue already holds
    /// this many deferred queries. `None` (default) never sheds on
    /// depth.
    pub shed_queue: Option<usize>,
    /// Last-resort shed: refuse an arrival while the mean alive-site
    /// load sits at or above this. `None` (default) never sheds on load.
    pub shed_load: Option<f64>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            enabled: false,
            load_high: 0.85,
            load_low: 0.55,
            backlog_high: 6,
            backlog_low: 1,
            max_level: 3,
            min_cap: 1,
            shed_queue: None,
            shed_load: None,
        }
    }
}

impl ControllerConfig {
    /// The default knobs with the master switch on — what
    /// `serve --adaptive` and the adaptive arms of the saturation sweep
    /// run.
    pub fn adaptive() -> Self {
        ControllerConfig {
            enabled: true,
            ..ControllerConfig::default()
        }
    }

    /// Panics unless the thresholds form valid hysteresis bands.
    pub fn validate(&self) {
        assert!(
            self.load_low < self.load_high,
            "controller hysteresis requires load_low {} < load_high {}",
            self.load_low,
            self.load_high
        );
        assert!(
            self.backlog_low < self.backlog_high,
            "controller hysteresis requires backlog_low {} < backlog_high {}",
            self.backlog_low,
            self.backlog_high
        );
        assert!(self.min_cap >= 1, "min_cap must be at least 1");
    }

    /// The governed clone-degree cap over `sites` sites at governor
    /// `level`: `None` when disabled or at level 0 (paper-optimal
    /// degrees), otherwise `max(min_cap, sites >> level)`. The governor
    /// only ever *lowers* degrees, so the paper's coarse-grain caps stay
    /// satisfied.
    pub fn degree_cap(&self, level: u32, sites: usize) -> Option<usize> {
        if !self.enabled || level == 0 {
            return None;
        }
        Some((sites >> level.min(63)).max(self.min_cap))
    }

    /// True when `action`, taken from replayed state `prev_level`, is
    /// justified by the recorded `sample` under these thresholds — the
    /// config-aware half of the trace replay (`mrs-audit`'s
    /// controller-coherence family); the structural half is
    /// [`audit_control_transition`](crate::trace::audit_control_transition).
    pub fn justifies(
        &self,
        action: ControlAction,
        sample: &PressureSample,
        prev_level: u32,
    ) -> bool {
        match action {
            ControlAction::EngageGate => sample.avg_load >= self.load_high,
            ControlAction::ReleaseGate => sample.avg_load <= self.load_low,
            ControlAction::RaiseLevel => {
                sample.backlog() >= self.backlog_high && prev_level < self.max_level
            }
            ControlAction::LowerLevel => {
                sample.backlog() <= self.backlog_low
                    && sample.avg_load <= self.load_low
                    && prev_level > 0
            }
        }
    }
}

/// One observation of the pressure signals, taken once per event-loop
/// epoch (after faults/retries/arrivals, before admission). All fields are copied from the loop's serial state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PressureSample {
    /// Virtual time of the observation.
    pub time: f64,
    /// Admission-queue depth.
    pub queue_depth: usize,
    /// Parked recovery retries (re-pack churn).
    pub retries: usize,
    /// Alive sites.
    pub alive: usize,
    /// Mean committed `l_∞` load over the alive sites
    /// ([`SiteSim::load`](mrs_sim::engine::SiteSim::load)), `+∞` with
    /// every site down.
    pub avg_load: f64,
}

impl PressureSample {
    /// The governor's backlog signal: queued arrivals plus parked
    /// retries.
    pub fn backlog(&self) -> usize {
        self.queue_depth + self.retries
    }
}

/// What a controller decision did. Recorded on the audit trace; the
/// discriminant is part of the [`RunSummary::digest`] encoding.
///
/// [`RunSummary::digest`]: crate::metrics::RunSummary::digest
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlAction {
    /// Governor level went up one step (degree cap tightened).
    RaiseLevel,
    /// Governor level came down one step (degree cap relaxed).
    LowerLevel,
    /// Backpressure gate engaged: admissions defer.
    EngageGate,
    /// Backpressure gate released: admissions resume.
    ReleaseGate,
}

impl ControlAction {
    /// Stable digest discriminant.
    pub fn discriminant(&self) -> u8 {
        match self {
            ControlAction::RaiseLevel => 0,
            ControlAction::LowerLevel => 1,
            ControlAction::EngageGate => 2,
            ControlAction::ReleaseGate => 3,
        }
    }

    /// Stable label for traces and CSVs.
    pub fn label(&self) -> &'static str {
        match self {
            ControlAction::RaiseLevel => "raise-level",
            ControlAction::LowerLevel => "lower-level",
            ControlAction::EngageGate => "engage-gate",
            ControlAction::ReleaseGate => "release-gate",
        }
    }
}

/// One state change the controller made, with the signal snapshot that
/// justified it (what the audit trace records).
#[derive(Clone, Debug, PartialEq)]
pub struct ControlDecision {
    /// What changed.
    pub action: ControlAction,
    /// Governor level after the decision.
    pub level: u32,
    /// Gate state after the decision.
    pub gate: bool,
    /// The observation that triggered it.
    pub sample: PressureSample,
}

/// The feedback controller's mutable state: a governor level and a gate
/// bit, both driven by [`Controller::observe`]. See the
/// [module docs](self).
#[derive(Clone, Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    level: u32,
    gate: bool,
}

impl Controller {
    /// A controller at level 0 with the gate released.
    ///
    /// # Panics
    /// If the config's hysteresis bands are invalid (see
    /// [`ControllerConfig::validate`]).
    pub fn new(cfg: ControllerConfig) -> Self {
        cfg.validate();
        Controller {
            cfg,
            level: 0,
            gate: false,
        }
    }

    /// Whether the master switch is on.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The config the controller runs under.
    pub fn config(&self) -> &ControllerConfig {
        &self.cfg
    }

    /// Current governor level (0 = full parallelism).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Whether the backpressure gate currently defers admissions.
    pub fn gate_engaged(&self) -> bool {
        self.gate
    }

    /// The governed clone-degree cap over `sites` sites at the current
    /// level ([`ControllerConfig::degree_cap`]).
    pub fn degree_cap(&self, sites: usize) -> Option<usize> {
        self.cfg.degree_cap(self.level, sites)
    }

    /// Feeds one pressure observation through the hysteresis rules and
    /// returns the state changes (at most one gate change and one level
    /// change — monotone: one step per observation). Pure function of
    /// `(state, sample)`; never called when disabled.
    pub fn observe(&mut self, sample: PressureSample) -> Vec<ControlDecision> {
        debug_assert!(self.cfg.enabled, "observe() on a disabled controller");
        let mut out = Vec::new();
        // Gate first: it acts on this epoch's admissions, while a level
        // change only affects plans computed after it.
        if !self.gate && sample.avg_load >= self.cfg.load_high {
            self.gate = true;
            out.push(ControlDecision {
                action: ControlAction::EngageGate,
                level: self.level,
                gate: true,
                sample,
            });
        } else if self.gate && sample.avg_load <= self.cfg.load_low {
            self.gate = false;
            out.push(ControlDecision {
                action: ControlAction::ReleaseGate,
                level: self.level,
                gate: false,
                sample,
            });
        }
        let backlog = sample.backlog();
        if backlog >= self.cfg.backlog_high && self.level < self.cfg.max_level {
            self.level += 1;
            out.push(ControlDecision {
                action: ControlAction::RaiseLevel,
                level: self.level,
                gate: self.gate,
                sample,
            });
        } else if backlog <= self.cfg.backlog_low
            && sample.avg_load <= self.cfg.load_low
            && self.level > 0
        {
            self.level -= 1;
            out.push(ControlDecision {
                action: ControlAction::LowerLevel,
                level: self.level,
                gate: self.gate,
                sample,
            });
        }
        out
    }

    /// Whether an arrival observed at `sample` must be shed as the last
    /// resort (hard bounds exceeded), and why. `None` defers or admits
    /// normally. Checked only while enabled.
    pub fn last_resort_shed(&self, sample: &PressureSample) -> Option<crate::job::ShedReason> {
        if !self.cfg.enabled {
            return None;
        }
        if let Some(limit) = self.cfg.shed_queue {
            if sample.queue_depth >= limit {
                return Some(crate::job::ShedReason::ControllerLastResort);
            }
        }
        if let Some(limit) = self.cfg.shed_load {
            if sample.avg_load >= limit {
                return Some(crate::job::ShedReason::MeanLoad);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(queue: usize, retries: usize, load: f64) -> PressureSample {
        PressureSample {
            time: 1.0,
            queue_depth: queue,
            retries,
            alive: 4,
            avg_load: load,
        }
    }

    fn controller() -> Controller {
        Controller::new(ControllerConfig::adaptive())
    }

    #[test]
    fn disabled_controller_caps_nothing() {
        let c = Controller::new(ControllerConfig::default());
        assert!(!c.enabled());
        assert_eq!(c.degree_cap(64), None);
        assert_eq!(c.last_resort_shed(&sample(100, 0, 10.0)), None);
    }

    #[test]
    fn gate_engages_high_and_releases_low_only() {
        let mut c = controller();
        assert!(!c.gate_engaged());
        // Inside the band: no change.
        assert!(c.observe(sample(0, 0, 0.7)).is_empty());
        let d = c.observe(sample(0, 0, 0.9));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].action, ControlAction::EngageGate);
        assert!(c.gate_engaged());
        // Still above the low watermark: gate holds (hysteresis).
        assert!(c.observe(sample(0, 0, 0.7)).is_empty());
        let d = c.observe(sample(0, 0, 0.5));
        assert_eq!(d[0].action, ControlAction::ReleaseGate);
        assert!(!c.gate_engaged());
    }

    #[test]
    fn level_moves_one_step_per_observation() {
        let mut c = controller();
        // Backlog 6 >= backlog_high: raise.
        let d = c.observe(sample(4, 2, 0.7));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].action, ControlAction::RaiseLevel);
        assert_eq!(c.level(), 1);
        // Enormous backlog still raises only one step.
        c.observe(sample(100, 0, 0.7));
        assert_eq!(c.level(), 2);
        c.observe(sample(100, 0, 0.7));
        assert_eq!(c.level(), 3);
        // Capped at max_level.
        assert!(c.observe(sample(100, 0, 0.7)).is_empty());
        assert_eq!(c.level(), 3);
        // Lowering needs BOTH a drained backlog and low load.
        assert!(c.observe(sample(0, 0, 0.7)).is_empty());
        let d = c.observe(sample(0, 0, 0.4));
        assert_eq!(d[0].action, ControlAction::LowerLevel);
        assert_eq!(c.level(), 2);
    }

    #[test]
    fn degree_cap_halves_per_level_with_floor() {
        let mut c = controller();
        assert_eq!(c.degree_cap(64), None, "level 0 is uncapped");
        c.observe(sample(10, 0, 0.7));
        assert_eq!(c.degree_cap(64), Some(32));
        c.observe(sample(10, 0, 0.7));
        assert_eq!(c.degree_cap(64), Some(16));
        c.observe(sample(10, 0, 0.7));
        assert_eq!(c.degree_cap(64), Some(8));
        assert_eq!(c.degree_cap(4), Some(1), "floor at min_cap");
    }

    #[test]
    fn gate_and_level_can_change_in_one_observation() {
        let mut c = controller();
        let d = c.observe(sample(8, 0, 0.95));
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].action, ControlAction::EngageGate);
        assert_eq!(d[1].action, ControlAction::RaiseLevel);
        assert!(d[1].gate, "level decision sees the engaged gate");
    }

    #[test]
    fn last_resort_bounds_fire_with_the_right_reason() {
        let cfg = ControllerConfig {
            enabled: true,
            shed_queue: Some(10),
            shed_load: Some(2.0),
            ..ControllerConfig::default()
        };
        let c = Controller::new(cfg);
        assert_eq!(c.last_resort_shed(&sample(3, 0, 0.5)), None);
        assert_eq!(
            c.last_resort_shed(&sample(10, 0, 0.5)),
            Some(crate::job::ShedReason::ControllerLastResort)
        );
        assert_eq!(
            c.last_resort_shed(&sample(0, 0, 2.5)),
            Some(crate::job::ShedReason::MeanLoad)
        );
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn inverted_band_rejected() {
        let cfg = ControllerConfig {
            load_high: 0.5,
            load_low: 0.6,
            ..ControllerConfig::default()
        };
        Controller::new(cfg);
    }

    #[test]
    fn observation_sequence_is_deterministic() {
        let run = || {
            let mut c = controller();
            let mut decisions = Vec::new();
            for (q, load) in [(0, 0.2), (7, 0.9), (9, 0.95), (2, 0.6), (0, 0.3)] {
                decisions.extend(c.observe(sample(q, 0, load)));
            }
            decisions
        };
        assert_eq!(run(), run());
    }
}
