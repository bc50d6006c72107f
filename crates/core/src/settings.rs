//! Fleet-level experiment settings.

use detrand::SplitMix64;
use hwsim::ChaosConfig;
use serde::{Deserialize, Serialize};

/// Settings shared by every experiment in a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSettings {
    /// Independently trained replicas per variant (the paper uses 10; 5
    /// for ImageNet).
    pub replicas: u32,
    /// Base algorithmic seed.
    pub base_seed: u64,
    /// Salt for the per-replica scheduler entropy. Runs are *replayable
    /// nondeterminism*: each replica's schedule is pinned so results can be
    /// attributed and reproduced; vary the salt to draw a fresh fleet
    /// (set it from OS entropy for genuinely unrepeatable runs).
    pub entropy_salt: u64,
    /// Amplified-noise tier in ulps (see
    /// [`nstensor::Reducer::with_amplification`]): models the longer
    /// accumulation chains of full-scale workloads so that scaled-down
    /// trainings reach the divergence regime within their epoch budget.
    /// Set to 0 for faithful order-only noise.
    pub amp_ulps: f32,
    /// Multiplier on every task's epoch budget (quick-mode knob).
    pub epochs_scale: f32,
    /// Host threads the blocked GEMM engine may use *within* one replica's
    /// tensor ops. Purely a wall-clock knob — the engine is bitwise
    /// invariant in the thread count — and orthogonal to the replica-level
    /// parallelism of `runner::run_grid`, so the default stays 1 to leave
    /// the cores to the grid's replica queue.
    pub exec_threads: usize,
    /// How many times the supervisor re-runs a failed replica before
    /// recording it as [`crate::runner::ReplicaStatus::Failed`]. Retries
    /// re-derive every seed from the replica index, so a retried replica
    /// is bit-identical to one that never failed.
    pub retry_budget: u32,
    /// Chaos-injection configuration for `hwsim` (fault schedules are
    /// derived per replica; each attempt takes at most one fault, at a
    /// step boundary). `None` — the default — plans no fault.
    pub chaos: Option<ChaosConfig>,
    /// Fleet-runner watchdog window in milliseconds: a worker process
    /// that writes no well-formed `hb` line for this long is killed, and
    /// its attempt fails with the reason `no heartbeat within <ms> ms`.
    /// A fixed multiple of it is each attempt's wall-clock deadline
    /// (`no exit within <ms> ms`). Supervision-only: it shapes
    /// *when* a worker is killed, never *what* a replica computes, so it
    /// stays out of the [`crate::resume::CheckpointStore`] fingerprint.
    pub worker_timeout_ms: u64,
    /// Fleet workers write an `hb <step>` line to stdout every this many
    /// optimizer steps (via the trainer progress hook). Supervision-only,
    /// like `worker_timeout_ms`.
    pub heartbeat_every_steps: u32,
}

impl Default for ExperimentSettings {
    fn default() -> Self {
        Self {
            replicas: 4,
            base_seed: 42,
            entropy_salt: 0x5EED_0015_EF00_D5ED,
            amp_ulps: 512.0,
            epochs_scale: 1.0,
            exec_threads: 1,
            retry_budget: 2,
            chaos: None,
            worker_timeout_ms: 120_000,
            heartbeat_every_steps: 4,
        }
    }
}

/// A rejected [`ExperimentSettings`] (or task) configuration.
///
/// Every entry point validates up front so a bad knob surfaces as one
/// typed, printable error instead of silent nonsense (0 replicas → empty
/// statistics) or a panic deep inside a training loop.
#[derive(Debug, Clone, PartialEq)]
pub enum SettingsError {
    /// `replicas == 0`: there is no fleet to run.
    ZeroReplicas,
    /// A task's `TrainConfig::batch_size` is 0.
    ZeroBatchSize {
        /// Name of the offending task.
        task: String,
    },
    /// A task's `TrainConfig::data_parallel_workers` is not 1, the only
    /// value the trainer runs.
    DataParallelWorkers {
        /// Name of the offending task.
        task: String,
        /// The offending worker count.
        workers: usize,
    },
    /// `epochs_scale` is non-finite or not strictly positive, so every
    /// epoch budget would collapse or go NaN.
    BadEpochsScale {
        /// The offending value.
        value: f32,
    },
    /// `amp_ulps` is negative or non-finite.
    BadAmpUlps {
        /// The offending value.
        value: f32,
    },
    /// `retry_budget == u32::MAX`: the supervisor runs `retry_budget + 1`
    /// attempts, which would overflow.
    RetryBudgetOverflow,
    /// `heartbeat_every_steps == 0`: a fleet worker would never emit a
    /// heartbeat, so the watchdog would kill every healthy worker.
    ZeroHeartbeatInterval,
    /// The heartbeat interval cannot fit inside the watchdog window:
    /// either `worker_timeout_ms == 0`, or `heartbeat_every_steps` (at
    /// the optimistic floor of one step per millisecond) is at or above
    /// `worker_timeout_ms`, so even a fast worker could never prove
    /// liveness in time.
    HeartbeatExceedsTimeout {
        /// Configured heartbeat interval in steps.
        heartbeat_every_steps: u32,
        /// Configured watchdog window in milliseconds.
        worker_timeout_ms: u64,
    },
    /// An environment variable is set to a value that does not parse: a
    /// number, or for `NS_CHAOS` a fault schedule.
    MalformedEnv {
        /// The variable, e.g. `NS_REPLICAS`.
        name: &'static str,
        /// Its raw value.
        value: String,
    },
}

impl std::fmt::Display for SettingsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SettingsError::ZeroReplicas => write!(f, "replicas must be >= 1 (NS_REPLICAS)"),
            SettingsError::ZeroBatchSize { task } => {
                write!(f, "task {task:?} has batch_size 0")
            }
            SettingsError::DataParallelWorkers { task, workers } => {
                write!(
                    f,
                    "task {task:?} has data_parallel_workers {workers}; only 1 is supported"
                )
            }
            SettingsError::BadEpochsScale { value } => {
                write!(
                    f,
                    "epochs_scale must be finite and > 0, got {value} (NS_EPOCHS_SCALE)"
                )
            }
            SettingsError::BadAmpUlps { value } => {
                write!(
                    f,
                    "amp_ulps must be finite and >= 0, got {value} (NS_AMP_ULPS)"
                )
            }
            SettingsError::RetryBudgetOverflow => {
                write!(
                    f,
                    "retry_budget {} leaves no room for the initial attempt (NS_RETRIES)",
                    u32::MAX
                )
            }
            SettingsError::ZeroHeartbeatInterval => {
                write!(f, "heartbeat_every_steps must be >= 1")
            }
            SettingsError::HeartbeatExceedsTimeout {
                heartbeat_every_steps,
                worker_timeout_ms,
            } => write!(
                f,
                "heartbeat interval ({heartbeat_every_steps} steps) cannot fit in the \
                 watchdog window ({worker_timeout_ms} ms); raise NS_WORKER_TIMEOUT"
            ),
            SettingsError::MalformedEnv { name, value } => {
                write!(f, "{name}={value:?} is not a valid value")
            }
        }
    }
}

impl std::error::Error for SettingsError {}

impl ExperimentSettings {
    /// Reads overrides from the environment:
    /// `NS_REPLICAS`, `NS_SEED`, `NS_AMP_ULPS`, `NS_EPOCHS_SCALE`,
    /// `NS_QUICK` (`1` → at most 3 replicas, half epochs; `0` → off),
    /// `NS_RETRIES` (supervisor retry budget), `NS_CHAOS`
    /// (chaos-injection schedule
    /// `<seed>[:<launch>,<panic>,<hang>,<abort>][@<hang_ms>][!]`, see
    /// [`hwsim::ChaosConfig::parse`]), and
    /// `NS_WORKER_TIMEOUT` (fleet watchdog window, in seconds).
    /// `exec_threads` and `heartbeat_every_steps` keep their defaults: no
    /// variable sets them.
    ///
    /// # Errors
    ///
    /// [`SettingsError::MalformedEnv`] when a variable is set but does not
    /// parse: a typo must not silently run the default budget, nor a chaos
    /// run without faults.
    pub fn from_env() -> Result<Self, SettingsError> {
        let mut s = Self::default();
        if let Ok(v) = std::env::var("NS_REPLICAS") {
            s.replicas = v.parse().map_err(|_| malformed("NS_REPLICAS", v))?;
        }
        if let Ok(v) = std::env::var("NS_SEED") {
            s.base_seed = v.parse().map_err(|_| malformed("NS_SEED", v))?;
        }
        if let Ok(v) = std::env::var("NS_AMP_ULPS") {
            s.amp_ulps = v.parse().map_err(|_| malformed("NS_AMP_ULPS", v))?;
        }
        if let Ok(v) = std::env::var("NS_EPOCHS_SCALE") {
            s.epochs_scale = v.parse().map_err(|_| malformed("NS_EPOCHS_SCALE", v))?;
        }
        if let Ok(v) = std::env::var("NS_RETRIES") {
            s.retry_budget = v.parse().map_err(|_| malformed("NS_RETRIES", v))?;
        }
        if let Ok(v) = std::env::var("NS_CHAOS") {
            s.chaos = Some(ChaosConfig::parse(&v).ok_or_else(|| malformed("NS_CHAOS", v))?);
        }
        if let Ok(v) = std::env::var("NS_WORKER_TIMEOUT") {
            let secs: u64 = v.parse().map_err(|_| malformed("NS_WORKER_TIMEOUT", v))?;
            s.worker_timeout_ms = secs.saturating_mul(1000);
        }
        if let Ok(v) = std::env::var("NS_QUICK") {
            match v.as_str() {
                "0" => {}
                "1" => {
                    s.replicas = s.replicas.min(3);
                    s.epochs_scale *= 0.5;
                }
                _ => return Err(malformed("NS_QUICK", v)),
            }
        }
        Ok(s)
    }

    /// Checks the settings for configurations that cannot run: zero
    /// replicas, a collapsed epoch scale, a negative amplification tier,
    /// a retry budget with no room for the initial attempt, and fleet
    /// heartbeat/timeout knobs that can never prove worker liveness.
    ///
    /// Called by `runner::run_grid` (and so by every experiment), by
    /// fleet workers, and by `repro` argument parsing; task-dependent
    /// checks live in
    /// [`ExperimentSettings::validate_for`].
    pub fn validate(&self) -> Result<(), SettingsError> {
        if self.replicas == 0 {
            return Err(SettingsError::ZeroReplicas);
        }
        if !self.epochs_scale.is_finite() || self.epochs_scale <= 0.0 {
            return Err(SettingsError::BadEpochsScale {
                value: self.epochs_scale,
            });
        }
        if !self.amp_ulps.is_finite() || self.amp_ulps < 0.0 {
            return Err(SettingsError::BadAmpUlps {
                value: self.amp_ulps,
            });
        }
        if self.retry_budget == u32::MAX {
            return Err(SettingsError::RetryBudgetOverflow);
        }
        if self.heartbeat_every_steps == 0 {
            return Err(SettingsError::ZeroHeartbeatInterval);
        }
        // One step per millisecond is an optimistic floor for these
        // workloads, so an interval of K steps needs a window comfortably
        // above K ms; at or below it, even a fast healthy worker cannot
        // heartbeat in time and the watchdog kills the whole fleet.
        if self.worker_timeout_ms <= self.heartbeat_every_steps as u64 {
            return Err(SettingsError::HeartbeatExceedsTimeout {
                heartbeat_every_steps: self.heartbeat_every_steps,
                worker_timeout_ms: self.worker_timeout_ms,
            });
        }
        Ok(())
    }

    /// [`ExperimentSettings::validate`] plus the task-dependent checks
    /// for one task spec: a zero batch size, or a data-parallel worker
    /// count other than 1, each of which the trainer would otherwise
    /// reject with a deep panic.
    pub fn validate_for(&self, task: &crate::task::TaskSpec) -> Result<(), SettingsError> {
        self.validate()?;
        if task.train.batch_size == 0 {
            return Err(SettingsError::ZeroBatchSize {
                task: task.name.clone(),
            });
        }
        if task.train.data_parallel_workers != 1 {
            return Err(SettingsError::DataParallelWorkers {
                task: task.name.clone(),
                workers: task.train.data_parallel_workers,
            });
        }
        Ok(())
    }

    /// The scheduler-entropy value for a replica.
    pub fn entropy_for(&self, replica: u32) -> u64 {
        SplitMix64::new(self.entropy_salt ^ ((replica as u64) << 32)).next_u64()
    }

    /// Scales an epoch budget by `epochs_scale` (minimum 1).
    pub fn scale_epochs(&self, epochs: u32) -> u32 {
        ((epochs as f32 * self.epochs_scale).round() as u32).max(1)
    }
}

/// The error for environment variable `name` set to the unparsable `value`.
fn malformed(name: &'static str, value: String) -> SettingsError {
    SettingsError::MalformedEnv { name, value }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let s = ExperimentSettings::default();
        assert!(s.replicas >= 2);
        assert!(s.amp_ulps >= 0.0);
        assert_eq!(s.scale_epochs(10), 10);
    }

    #[test]
    fn entropy_differs_per_replica_but_is_stable() {
        let s = ExperimentSettings::default();
        assert_ne!(s.entropy_for(0), s.entropy_for(1));
        assert_eq!(s.entropy_for(3), s.entropy_for(3));
    }

    #[test]
    fn scaling_clamps_to_one() {
        let s = ExperimentSettings {
            epochs_scale: 0.01,
            ..ExperimentSettings::default()
        };
        assert_eq!(s.scale_epochs(10), 1);
    }

    #[test]
    fn default_settings_validate() {
        ExperimentSettings::default().validate().unwrap();
    }

    #[test]
    fn validate_rejects_each_bad_knob() {
        let ok = ExperimentSettings::default();
        let cases = [
            (
                ExperimentSettings { replicas: 0, ..ok },
                SettingsError::ZeroReplicas,
            ),
            (
                ExperimentSettings {
                    epochs_scale: 0.0,
                    ..ok
                },
                SettingsError::BadEpochsScale { value: 0.0 },
            ),
            (
                ExperimentSettings {
                    amp_ulps: -1.0,
                    ..ok
                },
                SettingsError::BadAmpUlps { value: -1.0 },
            ),
            (
                ExperimentSettings {
                    retry_budget: u32::MAX,
                    ..ok
                },
                SettingsError::RetryBudgetOverflow,
            ),
            (
                ExperimentSettings {
                    heartbeat_every_steps: 0,
                    ..ok
                },
                SettingsError::ZeroHeartbeatInterval,
            ),
            (
                ExperimentSettings {
                    worker_timeout_ms: 0,
                    ..ok
                },
                SettingsError::HeartbeatExceedsTimeout {
                    heartbeat_every_steps: ok.heartbeat_every_steps,
                    worker_timeout_ms: 0,
                },
            ),
        ];
        for (bad, want) in cases {
            assert_eq!(bad.validate().unwrap_err(), want);
            // Errors must render (they reach end users via repro stderr).
            assert!(!want.to_string().is_empty());
        }
        assert!(ExperimentSettings {
            epochs_scale: f32::NAN,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn validate_for_rejects_zero_batch_size() {
        let mut task = crate::task::TaskSpec::small_cnn_cifar10();
        task.train.batch_size = 0;
        let err = ExperimentSettings::default()
            .validate_for(&task)
            .unwrap_err();
        assert!(matches!(err, SettingsError::ZeroBatchSize { .. }));
    }

    #[test]
    fn validate_for_rejects_data_parallel_workers_other_than_one() {
        let mut task = crate::task::TaskSpec::small_cnn_cifar10();
        for workers in [0, 4] {
            task.train.data_parallel_workers = workers;
            let err = ExperimentSettings::default()
                .validate_for(&task)
                .unwrap_err();
            assert_eq!(
                err,
                SettingsError::DataParallelWorkers {
                    task: task.name.clone(),
                    workers,
                }
            );
            assert!(err.to_string().contains("data_parallel_workers"));
        }
    }
}
