//! Deterministic chaos injection for the simulated accelerator.
//!
//! Fault tolerance cannot be tested against faults that never occur, and a
//! reproduction whose headline property is *replayability* cannot afford
//! faults that occur unreproducibly. This module resolves the tension the
//! same way the rest of the stack does: faults are drawn from a seeded
//! counter-based plan, so a chaos schedule is a pure function of
//! `(seed, replica)` — every recovery path is exercisable in CI with a
//! pinned schedule, and a failing run can be replayed bit-for-bit.
//!
//! Five fault kinds exercise the recovery paths of the supervision
//! layer:
//!
//! - [`FaultKind::LaunchFailure`] — a kernel launch reports failure. The
//!   [`crate::ExecutionContext`] records it; the training loop polls
//!   [`crate::ExecutionContext::take_fault`] and surfaces a structured
//!   error (graceful, error-return path).
//! - [`FaultKind::KernelPanic`] — the simulated driver aborts the host
//!   thread, i.e. `panic!`. Exercises the supervisor's `catch_unwind`
//!   isolation (crash path).
//! - [`FaultKind::NanPoison`] — a reduction silently produces NaN
//!   ([`nstensor::Reducer::inject_nan`]), which propagates through
//!   training until a divergence guard trips (silent-corruption path).
//! - [`FaultKind::Hang`] — the simulated kernel stalls: a real
//!   `thread::sleep` of [`ChaosConfig::hang_ms`] milliseconds at the
//!   planned `(step, op)`. In-process this is merely a slow step (results
//!   are unaffected — sleeping changes no arithmetic); under the
//!   process-isolated fleet runner it starves the heartbeat watchdog,
//!   which kills and re-dispatches the worker (timeout path).
//! - [`FaultKind::Abort`] — the simulated driver takes down the whole
//!   process via `std::process::abort`. Uncatchable in-process by design;
//!   only the fleet supervisor's process isolation recovers from it
//!   (signal-exit path).
//!
//! Faults are **transient** by default: only attempt 0 of a replica is
//! faulted, so a retried replica re-executes cleanly and — because replicas
//! are pure functions of their index — produces results bit-identical to a
//! never-faulted run. Set [`ChaosConfig::persistent`] to fault every
//! attempt (used to test retry-budget exhaustion).

use detrand::SplitMix64;
use serde::{Deserialize, Serialize};

/// Configuration of the chaos-injection layer. Off unless explicitly
/// attached to an execution context; see [`ChaosConfig::parse`] for the
/// syntax of the `NS_CHAOS` environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Launch failures to plan per faulted attempt.
    pub launch_failures: u32,
    /// Kernel panics to plan per faulted attempt.
    pub kernel_panics: u32,
    /// NaN poisonings to plan per faulted attempt.
    pub nan_poisons: u32,
    /// Kernel hangs (real stalls of [`ChaosConfig::hang_ms`]) to plan per
    /// faulted attempt.
    pub hangs: u32,
    /// Process aborts (`std::process::abort`) to plan per faulted attempt.
    /// Only survivable under process isolation — arming aborts without the
    /// fleet runner takes the whole experiment down, which is the point.
    pub aborts: u32,
    /// Stall duration of one [`FaultKind::Hang`], in milliseconds.
    pub hang_ms: u32,
    /// When set, every attempt is faulted (not just attempt 0) — retries
    /// can never succeed, which is how retry-budget exhaustion is tested.
    pub persistent: bool,
}

/// Default [`ChaosConfig::hang_ms`]: short enough that an in-process run
/// (where a hang is just a slow step) stays quick, long enough that a
/// test-scale watchdog window can sit well below it.
pub const DEFAULT_HANG_MS: u32 = 500;

impl ChaosConfig {
    /// A single transient fault of each of the three classic kinds (no
    /// hangs or aborts — those only make sense under a supervisor that
    /// can kill and re-dispatch workers).
    pub fn standard(seed: u64) -> Self {
        Self {
            seed,
            launch_failures: 1,
            kernel_panics: 1,
            nan_poisons: 1,
            hangs: 0,
            aborts: 0,
            hang_ms: DEFAULT_HANG_MS,
            persistent: false,
        }
    }

    /// Parses the `NS_CHAOS` syntax:
    /// `"<seed>[:<launch>,<panic>,<nan>[,<hang>[,<abort>]]][@<hang_ms>][!]"`.
    ///
    /// - `"<seed>"` alone plans one fault of each classic kind.
    /// - The 4th and 5th counts (hangs, aborts) are optional and default
    ///   to 0, so every pre-hang schedule string parses unchanged.
    /// - `@<hang_ms>` overrides the per-hang stall duration.
    /// - A trailing `!` makes faults persistent across attempts.
    ///
    /// Returns `None` on malformed input.
    pub fn parse(s: &str) -> Option<Self> {
        let s = s.trim();
        let (s, persistent) = match s.strip_suffix('!') {
            Some(rest) => (rest, true),
            None => (s, false),
        };
        let (s, hang_ms) = match s.split_once('@') {
            Some((a, ms)) => (a, Some(ms.trim().parse::<u32>().ok()?)),
            None => (s, None),
        };
        let (seed_str, counts) = match s.split_once(':') {
            Some((a, b)) => (a, Some(b)),
            None => (s, None),
        };
        let seed: u64 = seed_str.trim().parse().ok()?;
        let mut cfg = Self::standard(seed);
        cfg.persistent = persistent;
        if let Some(ms) = hang_ms {
            cfg.hang_ms = ms;
        }
        if let Some(counts) = counts {
            let mut it = counts.split(',');
            cfg.launch_failures = it.next()?.trim().parse().ok()?;
            cfg.kernel_panics = it.next()?.trim().parse().ok()?;
            cfg.nan_poisons = it.next()?.trim().parse().ok()?;
            if let Some(h) = it.next() {
                cfg.hangs = h.trim().parse().ok()?;
            }
            if let Some(a) = it.next() {
                cfg.aborts = a.trim().parse().ok()?;
            }
            if it.next().is_some() {
                return None;
            }
        }
        Some(cfg)
    }

    /// Total faults planned per faulted attempt.
    pub fn total_faults(&self) -> u32 {
        self.launch_failures + self.kernel_panics + self.nan_poisons + self.hangs + self.aborts
    }
}

/// The kind of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A kernel launch reports failure; recorded on the context for the
    /// caller to poll.
    LaunchFailure,
    /// The simulated driver panics the host thread.
    KernelPanic,
    /// A reduction silently returns NaN.
    NanPoison,
    /// The simulated kernel stalls for [`ChaosConfig::hang_ms`]
    /// milliseconds (a real `thread::sleep`). Results are unaffected;
    /// under the fleet runner the stall starves the heartbeat watchdog.
    Hang,
    /// The simulated driver aborts the whole process
    /// (`std::process::abort`) — uncatchable except by process isolation.
    Abort,
}

/// One planned fault: fires at the `op`-th reducer borrow of training
/// step `step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// The training step (as announced via
    /// [`crate::ExecutionContext::begin_step`]).
    pub step: u64,
    /// The op index within the step (reducer borrows since `begin_step`).
    pub op: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic fault schedule for one `(replica, attempt)` execution.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Planned faults, sorted by (step, op).
    faults: Vec<PlannedFault>,
    /// Stall duration of each planned [`FaultKind::Hang`], in ms.
    hang_ms: u32,
}

/// Upper bound on the op index faults are planned at. A training step of
/// the simulated models borrows a reducer a handful of times; planning
/// within the first few borrows guarantees every planned fault actually
/// fires.
const OPS_PER_STEP: u32 = 4;

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds the schedule for one `(replica, attempt)` execution over a
    /// training horizon of `horizon_steps` optimizer steps.
    ///
    /// Transient configs plan faults only for attempt 0; persistent
    /// configs fault every attempt identically. The schedule is a pure
    /// function of `(config, replica)` — it never depends on the attempt
    /// beyond the transient gate — so a replay of the same attempt sees
    /// the same faults.
    pub fn build(cfg: &ChaosConfig, replica: u32, attempt: u32, horizon_steps: u64) -> Self {
        if (attempt > 0 && !cfg.persistent) || horizon_steps == 0 || cfg.total_faults() == 0 {
            return Self::none();
        }
        let mut rng = SplitMix64::new(
            cfg.seed ^ (replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC4A0_5FA1,
        );
        let horizon = horizon_steps.min(u32::MAX as u64) as u32;
        let mut faults = Vec::with_capacity(cfg.total_faults() as usize);
        let mut push = |kind: FaultKind, count: u32, rng: &mut SplitMix64| {
            for _ in 0..count {
                faults.push(PlannedFault {
                    step: rng.next_below(horizon) as u64,
                    op: rng.next_below(OPS_PER_STEP),
                    kind,
                });
            }
        };
        push(FaultKind::LaunchFailure, cfg.launch_failures, &mut rng);
        push(FaultKind::KernelPanic, cfg.kernel_panics, &mut rng);
        push(FaultKind::NanPoison, cfg.nan_poisons, &mut rng);
        push(FaultKind::Hang, cfg.hangs, &mut rng);
        push(FaultKind::Abort, cfg.aborts, &mut rng);
        faults.sort_by_key(|f| (f.step, f.op));
        // Two faults landing on the same (step, op) slot: keep the first.
        faults.dedup_by_key(|f| (f.step, f.op));
        Self {
            faults,
            hang_ms: cfg.hang_ms,
        }
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The fault planned at `(step, op)`, if any.
    pub fn at(&self, step: u64, op: u32) -> Option<FaultKind> {
        self.faults
            .binary_search_by_key(&(step, op), |f| (f.step, f.op))
            .ok()
            .map(|i| self.faults[i].kind)
    }

    /// The planned faults, sorted by (step, op).
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// Stall duration of each planned [`FaultKind::Hang`], in ms.
    pub fn hang_ms(&self) -> u32 {
        self.hang_ms
    }
}

/// An injected fault, recorded on the execution context for the training
/// loop to poll (see [`crate::ExecutionContext::take_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Training step the fault fired at.
    pub step: u64,
    /// Op index within the step.
    pub op: u32,
    /// The fault kind.
    pub kind: FaultKind,
}

impl std::fmt::Display for ChaosEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected {:?} at step {} op {}",
            self.kind, self.step, self.op
        )
    }
}

/// Mutable chaos bookkeeping carried by an armed execution context.
#[derive(Debug, Clone)]
pub(crate) struct ChaosState {
    /// The fault schedule.
    pub plan: FaultPlan,
    /// Current training step (set by `begin_step`).
    pub step: u64,
    /// Reducer borrows since `begin_step`.
    pub op_in_step: u32,
    /// A NaN poison fired on a matmul-class borrow and is waiting for the
    /// next direct-reduction class to materialize on.
    pub nan_pending: bool,
    /// A recorded launch failure awaiting `take_fault`.
    pub fault: Option<ChaosEvent>,
}

impl ChaosState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        Self {
            plan,
            step: 0,
            op_in_step: 0,
            nan_pending: false,
            fault: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_seed_only() {
        let c = ChaosConfig::parse("42").unwrap();
        assert_eq!(c.seed, 42);
        assert_eq!(
            (c.launch_failures, c.kernel_panics, c.nan_poisons),
            (1, 1, 1)
        );
        assert!(!c.persistent);
    }

    #[test]
    fn parse_full_form_and_persistent() {
        let c = ChaosConfig::parse("7:2,0,3!").unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(
            (c.launch_failures, c.kernel_panics, c.nan_poisons),
            (2, 0, 3)
        );
        assert!(c.persistent);
        assert_eq!(c.total_faults(), 5);
    }

    #[test]
    fn parse_hang_and_abort_counts() {
        let c = ChaosConfig::parse("9:0,1,0,2").unwrap();
        assert_eq!((c.hangs, c.aborts), (2, 0));
        assert_eq!(c.hang_ms, DEFAULT_HANG_MS);
        let c = ChaosConfig::parse("9:0,1,0,2,1@1500!").unwrap();
        assert_eq!((c.hangs, c.aborts), (2, 1));
        assert_eq!(c.hang_ms, 1500);
        assert!(c.persistent);
        assert_eq!(c.total_faults(), 4);
        // Seed-only form still plans no hangs/aborts and keeps the
        // default stall duration overridable.
        let c = ChaosConfig::parse("9@250").unwrap();
        assert_eq!((c.hangs, c.aborts), (0, 0));
        assert_eq!(c.hang_ms, 250);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ChaosConfig::parse("").is_none());
        assert!(ChaosConfig::parse("x").is_none());
        assert!(ChaosConfig::parse("1:2").is_none());
        assert!(ChaosConfig::parse("1:2,3").is_none());
        assert!(ChaosConfig::parse("1:2,3,4,5,6,7").is_none());
        assert!(ChaosConfig::parse("1@").is_none());
        assert!(ChaosConfig::parse("1@ms").is_none());
    }

    #[test]
    fn plan_is_deterministic_per_replica() {
        let cfg = ChaosConfig::standard(99);
        let a = FaultPlan::build(&cfg, 3, 0, 100);
        let b = FaultPlan::build(&cfg, 3, 0, 100);
        assert_eq!(a.faults(), b.faults());
        let other = FaultPlan::build(&cfg, 4, 0, 100);
        assert_ne!(a.faults(), other.faults());
    }

    #[test]
    fn transient_plans_fault_only_attempt_zero() {
        let cfg = ChaosConfig::standard(1);
        assert!(!FaultPlan::build(&cfg, 0, 0, 50).is_empty());
        assert!(FaultPlan::build(&cfg, 0, 1, 50).is_empty());
        let persistent = ChaosConfig {
            persistent: true,
            ..cfg
        };
        assert!(!FaultPlan::build(&persistent, 0, 1, 50).is_empty());
        assert_eq!(
            FaultPlan::build(&persistent, 0, 0, 50).faults(),
            FaultPlan::build(&persistent, 0, 7, 50).faults(),
        );
    }

    #[test]
    fn plan_lookup_matches_schedule() {
        let cfg = ChaosConfig::parse("5:3,2,4").unwrap();
        let plan = FaultPlan::build(&cfg, 1, 0, 1000);
        assert!(!plan.is_empty());
        for f in plan.faults() {
            assert!(f.step < 1000);
            assert!(f.op < OPS_PER_STEP);
            assert_eq!(plan.at(f.step, f.op), Some(f.kind));
        }
        assert_eq!(plan.at(u64::MAX, 0), None);
    }

    #[test]
    fn empty_horizon_or_counts_plan_nothing() {
        let cfg = ChaosConfig::standard(1);
        assert!(FaultPlan::build(&cfg, 0, 0, 0).is_empty());
        let none = ChaosConfig {
            launch_failures: 0,
            kernel_panics: 0,
            nan_poisons: 0,
            ..cfg
        };
        assert!(FaultPlan::build(&none, 0, 0, 100).is_empty());
    }

    #[test]
    fn hang_and_abort_faults_are_planned_and_carry_duration() {
        let cfg = ChaosConfig::parse("11:0,0,0,2,1@75").unwrap();
        let plan = FaultPlan::build(&cfg, 2, 0, 500);
        assert_eq!(plan.hang_ms(), 75);
        let hangs = plan
            .faults()
            .iter()
            .filter(|f| f.kind == FaultKind::Hang)
            .count();
        let aborts = plan
            .faults()
            .iter()
            .filter(|f| f.kind == FaultKind::Abort)
            .count();
        // dedup_by_key can only shrink counts on (step, op) collisions;
        // with a 500-step horizon these three draws land apart.
        assert_eq!((hangs, aborts), (2, 1));
        for f in plan.faults() {
            assert_eq!(plan.at(f.step, f.op), Some(f.kind));
        }
    }

    #[test]
    fn new_fault_kinds_do_not_shift_classic_schedules() {
        // Hang/abort draws happen after the classic three, so arming them
        // leaves the classic kinds' (step, op) placements untouched —
        // pinned chaos seeds in CI stay stable when a schedule adds hangs.
        let classic = ChaosConfig::standard(20);
        let extended = ChaosConfig {
            hangs: 2,
            aborts: 1,
            ..classic
        };
        let classic_plan = FaultPlan::build(&classic, 1, 0, 100);
        let extended_plan = FaultPlan::build(&extended, 1, 0, 100);
        let classic_subset: Vec<_> = extended_plan
            .faults()
            .iter()
            .filter(|f| {
                matches!(
                    f.kind,
                    FaultKind::LaunchFailure | FaultKind::KernelPanic | FaultKind::NanPoison
                )
            })
            .copied()
            .collect();
        assert_eq!(classic_plan.faults(), classic_subset.as_slice());
    }
}
