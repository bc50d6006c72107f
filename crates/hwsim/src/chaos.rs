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
//! Faults fire at a step boundary
//! ([`crate::ExecutionContext::begin_step`]), never inside a reduction,
//! and there is one fault kind per recovery path of the supervision
//! layer:
//!
//! - [`FaultKind::LaunchFailure`] — a kernel launch reports failure. The
//!   [`crate::ExecutionContext`] records it; the training loop polls
//!   [`crate::ExecutionContext::take_fault`] and surfaces a structured
//!   error (error-return path).
//! - [`FaultKind::KernelPanic`] — the simulated driver aborts the host
//!   thread, i.e. `panic!`. Exercises the supervisor's `catch_unwind`
//!   isolation (panic path).
//! - [`FaultKind::Hang`] — the simulated kernel stalls: a real
//!   `thread::sleep` of [`ChaosConfig::hang_ms`] milliseconds. In-process
//!   this is merely a slow step (results are unaffected — sleeping changes
//!   no arithmetic); under the process-isolated fleet runner it starves
//!   the heartbeat watchdog, which kills and re-dispatches the worker
//!   (watchdog path).
//! - [`FaultKind::Abort`] — the simulated driver takes down the whole
//!   process via `std::process::abort`. Uncatchable in-process by design;
//!   only the fleet supervisor's process isolation recovers from it
//!   (process-death path).
//!
//! An attempt takes at most one fault. A schedule of `k` faults is
//! **transient** by default: attempts `0..k` each take one, in step
//! order, and attempt `k` runs clean — so a retried replica ends in a
//! clean execution whose results, because replicas are pure functions of
//! their index, are bit-identical to a never-faulted run. Set
//! [`ChaosConfig::persistent`] to give every attempt the first fault
//! (used to test retry-budget exhaustion).

use detrand::SplitMix64;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration of the chaos-injection layer. Off unless explicitly
/// attached to an execution context; see [`ChaosConfig::parse`] for the
/// syntax of the `NS_CHAOS` environment knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Seed of the fault schedule.
    pub seed: u64,
    /// Launch failures in the schedule.
    pub launch_failures: u32,
    /// Kernel panics in the schedule.
    pub kernel_panics: u32,
    /// Kernel hangs (real stalls of [`ChaosConfig::hang_ms`]) in the
    /// schedule.
    pub hangs: u32,
    /// Process aborts (`std::process::abort`) in the schedule. Only
    /// survivable under process isolation — arming aborts without the
    /// fleet runner takes the whole experiment down, which is the point.
    pub aborts: u32,
    /// Stall duration of one [`FaultKind::Hang`], in milliseconds.
    pub hang_ms: u32,
    /// When set, every attempt takes the schedule's first fault — retries
    /// can never succeed, which is how retry-budget exhaustion is tested.
    pub persistent: bool,
}

/// Default [`ChaosConfig::hang_ms`]: short enough that an in-process run
/// (where a hang is just a slow step) stays quick, long enough that a
/// test-scale watchdog window can sit well below it.
pub const DEFAULT_HANG_MS: u32 = 500;

impl ChaosConfig {
    /// One transient launch failure and one kernel panic (no hangs or
    /// aborts — those only make sense under a supervisor that can kill
    /// and re-dispatch workers).
    pub fn standard(seed: u64) -> Self {
        Self {
            seed,
            launch_failures: 1,
            kernel_panics: 1,
            hangs: 0,
            aborts: 0,
            hang_ms: DEFAULT_HANG_MS,
            persistent: false,
        }
    }

    /// Parses the `NS_CHAOS` syntax:
    /// `"<seed>[:<launch>,<panic>,<hang>,<abort>][@<hang_ms>][!]"`.
    ///
    /// - `"<seed>"` alone is [`ChaosConfig::standard`].
    /// - The counts, when given, are exactly four, so a schedule written
    ///   for another set of kinds is rejected rather than reread.
    /// - `@<hang_ms>` overrides the per-hang stall duration.
    /// - A trailing `!` makes the schedule persistent.
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
            let counts: Vec<u32> = counts
                .split(',')
                .map(|c| c.trim().parse().ok())
                .collect::<Option<_>>()?;
            let &[launch, panic, hang, abort] = counts.as_slice() else {
                return None;
            };
            (
                cfg.launch_failures,
                cfg.kernel_panics,
                cfg.hangs,
                cfg.aborts,
            ) = (launch, panic, hang, abort);
        }
        Some(cfg)
    }

    /// Total faults in the schedule.
    pub fn total_faults(&self) -> u32 {
        self.launch_failures + self.kernel_panics + self.hangs + self.aborts
    }
}

/// The kind of an injected fault: one per recovery path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A kernel launch reports failure; recorded on the context for the
    /// caller to poll.
    LaunchFailure,
    /// The simulated driver panics the host thread.
    KernelPanic,
    /// The simulated kernel stalls for [`ChaosConfig::hang_ms`]
    /// milliseconds (a real `thread::sleep`). Results are unaffected;
    /// under the fleet runner the stall starves the heartbeat watchdog.
    Hang,
    /// The simulated driver aborts the whole process
    /// (`std::process::abort`) — uncatchable except by process isolation.
    Abort,
}

/// One fault: fires when training step `step` begins (see
/// [`crate::ExecutionContext::begin_step`]). A fired launch failure is
/// what [`crate::ExecutionContext::take_fault`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// The training step the fault fires at.
    pub step: u64,
    /// What happens.
    pub kind: FaultKind,
}

impl fmt::Display for PlannedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected {:?} at step {}", self.kind, self.step)
    }
}

/// The fault schedule of one `(replica, attempt)` execution: at most one
/// fault.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// The attempt's fault, until it fires.
    fault: Option<PlannedFault>,
    /// Stall duration of a [`FaultKind::Hang`], in ms.
    hang_ms: u32,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds the schedule for one `(replica, attempt)` execution over a
    /// training horizon of `horizon_steps` optimizer steps.
    ///
    /// The config's faults are drawn from `(seed, replica)` and sorted by
    /// step (ties keep draw order: launch failures, panics, hangs,
    /// aborts). A transient config gives attempt `a` fault `a`, and
    /// attempts past the last fault none; a persistent config gives every
    /// attempt fault 0. The attempt only selects a fault, never moves one,
    /// so a replay of the same attempt sees the same fault.
    pub fn build(cfg: &ChaosConfig, replica: u32, attempt: u32, horizon_steps: u64) -> Self {
        let index = if cfg.persistent { 0 } else { attempt };
        if horizon_steps == 0 || index >= cfg.total_faults() {
            return Self::none();
        }
        let mut rng = SplitMix64::new(
            cfg.seed ^ (replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC4A0_5FA1,
        );
        let horizon = horizon_steps.min(u32::MAX as u64) as u32;
        let mut faults: Vec<PlannedFault> = [
            (FaultKind::LaunchFailure, cfg.launch_failures),
            (FaultKind::KernelPanic, cfg.kernel_panics),
            (FaultKind::Hang, cfg.hangs),
            (FaultKind::Abort, cfg.aborts),
        ]
        .into_iter()
        .flat_map(|(kind, count)| std::iter::repeat_n(kind, count as usize))
        .map(|kind| PlannedFault {
            step: rng.next_below(horizon) as u64,
            kind,
        })
        .collect();
        faults.sort_by_key(|f| f.step);
        Self {
            fault: Some(faults[index as usize]),
            hang_ms: cfg.hang_ms,
        }
    }

    /// Whether the plan holds no fault (none was planned, or it fired).
    pub fn is_empty(&self) -> bool {
        self.fault.is_none()
    }

    /// Stall duration of a planned [`FaultKind::Hang`], in ms.
    pub fn hang_ms(&self) -> u32 {
        self.hang_ms
    }

    /// Takes the fault out of the plan if it is due at `step`.
    pub(crate) fn take_due(&mut self, step: u64) -> Option<PlannedFault> {
        self.fault.take_if(|f| f.step <= step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_seed_only() {
        let c = ChaosConfig::parse("42").unwrap();
        assert_eq!(c, ChaosConfig::standard(42));
        assert_eq!(
            (c.launch_failures, c.kernel_panics, c.hangs, c.aborts),
            (1, 1, 0, 0)
        );
        assert!(!c.persistent);
    }

    #[test]
    fn parse_full_form_and_persistent() {
        let c = ChaosConfig::parse("7:2,0,3,1!").unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(
            (c.launch_failures, c.kernel_panics, c.hangs, c.aborts),
            (2, 0, 3, 1)
        );
        assert!(c.persistent);
        assert_eq!(c.total_faults(), 6);
    }

    #[test]
    fn parse_hang_and_abort_counts() {
        let c = ChaosConfig::parse("9:0,1,2,0").unwrap();
        assert_eq!((c.hangs, c.aborts), (2, 0));
        assert_eq!(c.hang_ms, DEFAULT_HANG_MS);
        let c = ChaosConfig::parse("9:0,1,2,1@1500!").unwrap();
        assert_eq!((c.hangs, c.aborts), (2, 1));
        assert_eq!(c.hang_ms, 1500);
        assert!(c.persistent);
        // The seed-only form plans no hangs or aborts and keeps the stall
        // duration overridable.
        let c = ChaosConfig::parse("9@250").unwrap();
        assert_eq!((c.hangs, c.aborts), (0, 0));
        assert_eq!(c.hang_ms, 250);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "x",
            "1:2",
            "1:2,3",
            "1:1,x,0,0",
            "1:1,0,0,0,",
            "1@",
            "1@ms",
            // Three and five counts named other kinds once; a schedule
            // written for them must not be reread as this one.
            "20:1,0,1",
            "20:0,1,0,1,0",
        ] {
            assert!(ChaosConfig::parse(bad).is_none(), "{bad:?} parsed");
        }
    }

    #[test]
    fn plan_is_deterministic_per_replica() {
        let cfg = ChaosConfig::standard(99);
        let faults = |replica| [0, 1].map(|a| FaultPlan::build(&cfg, replica, a, 100).fault);
        assert_eq!(faults(3), faults(3));
        assert_ne!(faults(3), faults(4));
    }

    #[test]
    fn transient_plans_fault_only_attempt_zero() {
        // With one fault in the schedule, only attempt 0 takes it.
        let cfg = ChaosConfig::parse("1:1,0,0,0").unwrap();
        assert!(!FaultPlan::build(&cfg, 0, 0, 50).is_empty());
        assert!(FaultPlan::build(&cfg, 0, 1, 50).is_empty());
        let persistent = ChaosConfig {
            persistent: true,
            ..cfg
        };
        assert!(!FaultPlan::build(&persistent, 0, 1, 50).is_empty());
        assert_eq!(
            FaultPlan::build(&persistent, 0, 0, 50).fault,
            FaultPlan::build(&persistent, 0, 7, 50).fault,
        );
    }

    #[test]
    fn transient_attempts_take_one_fault_each_in_step_order() {
        let cfg = ChaosConfig::parse("5:2,1,3,1").unwrap();
        let k = cfg.total_faults();
        let faults: Vec<PlannedFault> = (0..k)
            .map(|a| {
                FaultPlan::build(&cfg, 1, a, 1000)
                    .fault
                    .expect("attempt faulted")
            })
            .collect();
        assert!(
            FaultPlan::build(&cfg, 1, k, 1000).is_empty(),
            "attempt k is clean"
        );
        assert!(faults.windows(2).all(|w| w[0].step <= w[1].step));
        assert!(faults.iter().all(|f| f.step < 1000));
        let count = |kind| faults.iter().filter(|f| f.kind == kind).count();
        assert_eq!(
            [
                FaultKind::LaunchFailure,
                FaultKind::KernelPanic,
                FaultKind::Hang,
                FaultKind::Abort
            ]
            .map(count),
            [2, 1, 3, 1]
        );
        let persistent = ChaosConfig {
            persistent: true,
            ..cfg
        };
        for a in [0, 1, k, 7 * k] {
            assert_eq!(
                FaultPlan::build(&persistent, 1, a, 1000).fault,
                Some(faults[0]),
                "attempt {a}"
            );
        }
    }

    #[test]
    fn plan_lookup_matches_schedule() {
        let cfg = ChaosConfig::parse("5:3,2,4,0").unwrap();
        let mut plan = FaultPlan::build(&cfg, 1, 0, 1000);
        let fault = plan.fault.expect("planned");
        assert!(fault.step < 1000);
        if fault.step > 0 {
            assert_eq!(plan.take_due(fault.step - 1), None, "not due yet");
        }
        assert_eq!(plan.take_due(fault.step), Some(fault));
        assert!(plan.is_empty(), "a fault is taken once");
        assert_eq!(plan.take_due(u64::MAX), None);
        assert_eq!(
            fault.to_string(),
            format!("injected {:?} at step {}", fault.kind, fault.step)
        );
    }

    #[test]
    fn empty_horizon_or_counts_plan_nothing() {
        let cfg = ChaosConfig::standard(1);
        assert!(FaultPlan::build(&cfg, 0, 0, 0).is_empty());
        let none = ChaosConfig::parse("1:0,0,0,0!").unwrap();
        assert!(FaultPlan::build(&none, 0, 0, 100).is_empty());
    }

    #[test]
    fn hang_and_abort_faults_are_planned_and_carry_duration() {
        let cfg = ChaosConfig::parse("11:0,0,2,1@75").unwrap();
        let plans = [0, 1, 2].map(|a| FaultPlan::build(&cfg, 2, a, 500));
        assert!(plans.iter().all(|p| p.hang_ms() == 75));
        let kinds = plans.map(|p| p.fault.expect("planned").kind);
        let count = |kind| kinds.iter().filter(|&&k| k == kind).count();
        assert_eq!((count(FaultKind::Hang), count(FaultKind::Abort)), (2, 1));
    }

    #[test]
    fn new_fault_kinds_do_not_shift_classic_schedules() {
        // Hang and abort steps are drawn after the launch failures and
        // panics, so adding them leaves those faults' steps untouched.
        let classic = ChaosConfig::standard(20);
        let extended = ChaosConfig {
            hangs: 2,
            aborts: 1,
            ..classic
        };
        let faults = |cfg: &ChaosConfig| -> Vec<PlannedFault> {
            (0..cfg.total_faults())
                .filter_map(|a| FaultPlan::build(cfg, 1, a, 100).fault)
                .filter(|f| matches!(f.kind, FaultKind::LaunchFailure | FaultKind::KernelPanic))
                .collect()
        };
        assert_eq!(faults(&classic), faults(&extended));
    }
}
