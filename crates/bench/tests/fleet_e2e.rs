//! End-to-end resilience tests for the fleet supervisor driving the real
//! `repro --worker` binary (via `CARGO_BIN_EXE_repro`).
//!
//! The properties under test are the fleet contract:
//!
//! - process-isolated replicas are **bit-identical** to in-process
//!   [`run_variant`] runs, including after watchdog kills and
//!   checkpoint-resumed retries;
//! - hung workers (chaos [`FaultKind::Hang`]) are killed by the heartbeat
//!   watchdog and re-dispatched;
//! - aborting workers (chaos [`FaultKind::Abort`], a real
//!   `std::process::abort`) are classified as signal deaths and
//!   re-dispatched;
//! - a worker whose training fails (a chaos launch failure, a real
//!   `TrainError`) exits 1 and leaves no result file;
//! - an exhausted retry budget degrades into failed [`ReplicaStatus`]
//!   entries and an `[INCOMPLETE ...]` report — never a supervisor error.

use hwsim::chaos::ChaosConfig;
use hwsim::Architecture;
use noisescope::prelude::*;
use std::path::PathBuf;

fn tiny_task() -> TaskSpec {
    let mut t = TaskSpec::small_cnn_cifar10();
    t.data = DataSource::Gaussian(nsdata::GaussianSpec {
        classes: 2,
        train_per_class: 4,
        test_per_class: 2,
        ..nsdata::GaussianSpec::cifar10_sim()
    });
    t.train.epochs = 1;
    t.augment = false;
    t
}

/// Fleet options pointing at the real worker binary.
fn repro_fleet() -> FleetOptions {
    FleetOptions {
        procs: 2,
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_repro"))),
        ..FleetOptions::default()
    }
}

/// A chaos schedule with `hangs`/`aborts` faults per replica and nothing
/// else. Transient (non-persistent) unless stated otherwise: attempt `a`
/// takes fault `a`, so with one fault only attempt 0 is faulted.
fn chaos(hangs: u32, aborts: u32, hang_ms: u32, persistent: bool) -> ChaosConfig {
    ChaosConfig {
        seed: 1234,
        launch_failures: 0,
        kernel_panics: 0,
        hangs,
        aborts,
        hang_ms,
        persistent,
    }
}

struct Scratch(CheckpointStore);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("noisescope-fleet-e2e-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Scratch(CheckpointStore::new(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(self.0.root()).ok();
    }
}

/// Asserts two fleets produced bit-for-bit identical replica results
/// (float fields compared via `to_bits`, never `==`).
fn assert_bit_identical(fleet: &VariantRuns, golden: &VariantRuns) {
    assert_eq!(fleet.results.len(), golden.results.len(), "replica count");
    for (f, g) in fleet.results.iter().zip(&golden.results) {
        assert_eq!(f.replica, g.replica);
        assert_eq!(
            f.accuracy.to_bits(),
            g.accuracy.to_bits(),
            "accuracy of replica {}",
            f.replica
        );
        assert_eq!(
            f.final_train_loss.to_bits(),
            g.final_train_loss.to_bits(),
            "final loss of replica {}",
            f.replica
        );
        assert_eq!(f.weights.len(), g.weights.len());
        assert!(
            f.weights
                .iter()
                .zip(&g.weights)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "weights of replica {} diverge",
            f.replica
        );
        assert_eq!(f.preds, g.preds, "predictions of replica {}", f.replica);
    }
}

#[test]
fn fleet_run_is_bit_identical_to_in_process() {
    let scratch = Scratch::new("plain");
    let prepared = PreparedTask::prepare(&tiny_task());
    let settings = ExperimentSettings {
        replicas: 2,
        worker_timeout_ms: 60_000,
        ..ExperimentSettings::default()
    };
    // A preset, and a custom device like the lanes sweep's: both cross
    // the worker boundary whole.
    let sweep_gpu = Device::custom("SWEEP-GPU", Architecture::Volta, 640, false, false, 14.9);
    for device in [Device::cpu(), sweep_gpu] {
        let fleet = run_variant_fleet(
            &prepared,
            &device,
            NoiseVariant::AlgoImpl,
            &settings,
            &scratch.0,
            1,
            &repro_fleet(),
        )
        .unwrap_or_else(|e| panic!("fleet run on {}: {e}", device.name()));
        assert!(fleet.statuses.iter().all(|s| *s == ReplicaStatus::Ok));

        let golden = run_variant(&prepared, &device, NoiseVariant::AlgoImpl, &settings);
        assert_bit_identical(&fleet, &golden);
    }
}

#[test]
fn hung_worker_is_watchdog_killed_retried_and_bit_identical() {
    let scratch = Scratch::new("hang");
    let prepared = PreparedTask::prepare(&tiny_task());
    // Every replica hangs 120 s mid-step on attempt 0 — far beyond the
    // 8 s heartbeat timeout — so the watchdog must kill and re-dispatch.
    let settings = ExperimentSettings {
        replicas: 2,
        retry_budget: 2,
        worker_timeout_ms: 8_000,
        chaos: Some(chaos(1, 0, 120_000, false)),
        ..ExperimentSettings::default()
    };
    let fleet = run_variant_fleet(
        &prepared,
        &Device::cpu(),
        NoiseVariant::AlgoImpl,
        &settings,
        &scratch.0,
        1,
        &repro_fleet(),
    )
    .expect("fleet run survives hung workers");
    for s in &fleet.statuses {
        assert!(
            matches!(s, ReplicaStatus::Retried { attempts } if *attempts >= 2),
            "hung replicas must be retried, got {s:?}"
        );
    }

    // Golden: the same experiment in-process with no chaos at all.
    let clean = ExperimentSettings {
        chaos: None,
        ..settings
    };
    let golden = run_variant(&prepared, &Device::cpu(), NoiseVariant::AlgoImpl, &clean);
    assert_bit_identical(&fleet, &golden);
}

#[test]
fn aborting_worker_is_classified_as_signal_retried_and_bit_identical() {
    let scratch = Scratch::new("abort");
    let prepared = PreparedTask::prepare(&tiny_task());
    // Every replica calls std::process::abort() mid-step on attempt 0.
    let settings = ExperimentSettings {
        replicas: 2,
        retry_budget: 2,
        worker_timeout_ms: 60_000,
        chaos: Some(chaos(0, 1, 0, false)),
        ..ExperimentSettings::default()
    };
    let fleet = run_variant_fleet(
        &prepared,
        &Device::cpu(),
        NoiseVariant::AlgoImpl,
        &settings,
        &scratch.0,
        1,
        &repro_fleet(),
    )
    .expect("fleet run survives aborting workers");
    for s in &fleet.statuses {
        assert!(
            matches!(s, ReplicaStatus::Retried { attempts } if *attempts >= 2),
            "aborted replicas must be retried, got {s:?}"
        );
    }

    let clean = ExperimentSettings {
        chaos: None,
        ..settings
    };
    let golden = run_variant(&prepared, &Device::cpu(), NoiseVariant::AlgoImpl, &clean);
    assert_bit_identical(&fleet, &golden);
}

#[test]
fn exhausted_retry_budget_degrades_into_incomplete_report() {
    let scratch = Scratch::new("exhaust");
    let prepared = PreparedTask::prepare(&tiny_task());
    // Persistent aborts: every attempt of every replica dies, so the
    // budget must exhaust. The supervisor must degrade, not error.
    let settings = ExperimentSettings {
        replicas: 2,
        retry_budget: 1,
        worker_timeout_ms: 60_000,
        chaos: Some(chaos(0, 1, 0, true)),
        ..ExperimentSettings::default()
    };
    let fleet = run_variant_fleet(
        &prepared,
        &Device::cpu(),
        NoiseVariant::AlgoImpl,
        &settings,
        &scratch.0,
        1,
        &repro_fleet(),
    )
    .expect("an exhausted budget is a degraded result, not an error");
    assert!(fleet.results.is_empty(), "no replica can finish");
    assert_eq!(fleet.statuses.len(), 2);
    for s in &fleet.statuses {
        assert!(
            matches!(s, ReplicaStatus::Failed { reason }
                if reason.contains("2 attempts exhausted") && reason.contains("signal 6")),
            "persistent aborts must exhaust into Failed(signal 6), got {s:?}"
        );
    }

    let report = stability_report(&prepared, &Device::cpu(), NoiseVariant::AlgoImpl, &fleet);
    let line = report.summary_line();
    assert!(
        line.contains("[INCOMPLETE"),
        "summary must flag the incomplete fleet: {line}"
    );
}

#[test]
fn a_worker_whose_training_fails_exits_1_and_leaves_no_result() {
    let scratch = Scratch::new("trainerror");
    let prepared = PreparedTask::prepare(&tiny_task());
    // Persistent launch failures: every attempt's training returns a
    // TrainError, which the worker reports through its exit status.
    let settings = ExperimentSettings {
        replicas: 2,
        retry_budget: 1,
        worker_timeout_ms: 60_000,
        chaos: Some(ChaosConfig {
            launch_failures: 1,
            ..chaos(0, 0, 0, true)
        }),
        ..ExperimentSettings::default()
    };
    let fleet = run_variant_fleet(
        &prepared,
        &Device::cpu(),
        NoiseVariant::AlgoImpl,
        &settings,
        &scratch.0,
        1,
        &repro_fleet(),
    )
    .expect("failed training is a degraded result, not an error");
    assert!(fleet.results.is_empty(), "no replica can finish");
    assert_eq!(fleet.statuses.len(), 2);
    for s in &fleet.statuses {
        assert!(
            matches!(s, ReplicaStatus::Failed { reason }
                if reason.contains("2 attempts exhausted") && reason.contains("exit code 1")),
            "failed training must exhaust into Failed(exit code 1), got {s:?}"
        );
    }
    let cell = scratch
        .0
        .cell_dir(&prepared.spec, &Device::cpu(), NoiseVariant::AlgoImpl);
    let results: Vec<_> = std::fs::read_dir(&cell)
        .expect("the cell exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.ends_with(".result"))
        .collect();
    assert!(
        results.is_empty(),
        "a failed replica leaves no result: {results:?}"
    );
}

#[test]
fn a_worker_without_a_decodable_spec_line_exits_2() {
    use std::io::Write;
    use std::process::{Command, Stdio};
    for input in ["", "not json\n", "{}\n"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("--worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn worker");
        child
            .stdin
            .take()
            .expect("stdin piped")
            .write_all(input.as_bytes())
            .expect("write spec");
        let out = child.wait_with_output().expect("worker exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{input:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{input:?}: nothing on stdout without a spec"
        );
    }
}
