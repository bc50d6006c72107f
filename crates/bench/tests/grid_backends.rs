//! The single grid path, run on both attempt backends: a stability grid
//! driven in process and through `repro --worker` processes must produce
//! byte-identical reports, and every cell must equal an in-memory
//! [`run_variant`] fleet bit for bit.

use noisescope::experiments::stability::{self, StabilityGrid};
use noisescope::prelude::*;
use std::path::PathBuf;

fn tiny_task(name: &str, with_bn: bool) -> TaskSpec {
    let mut t = if with_bn {
        TaskSpec::small_cnn_bn_cifar10()
    } else {
        TaskSpec::small_cnn_cifar10()
    };
    t.name = name.into();
    t.data = DataSource::Gaussian(nsdata::GaussianSpec {
        classes: 2,
        train_per_class: 4,
        test_per_class: 2,
        ..nsdata::GaussianSpec::cifar10_sim()
    });
    t.train.epochs = 2;
    t.augment = false;
    t
}

struct Scratch(CheckpointStore);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "noisescope-grid-backends-{tag}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        Scratch(CheckpointStore::new(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(self.0.root()).ok();
    }
}

/// Every replica of `runs` equals `golden`'s, compared via `to_bits`.
fn assert_bit_identical(runs: &VariantRuns, golden: &VariantRuns) {
    assert_eq!(runs.statuses, golden.statuses);
    assert_eq!(runs.results.len(), golden.results.len());
    let bits = |ws: &[f32]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    for (r, g) in runs.results.iter().zip(&golden.results) {
        assert_eq!(r.replica, g.replica);
        assert_eq!(r.accuracy.to_bits(), g.accuracy.to_bits());
        assert_eq!(r.final_train_loss.to_bits(), g.final_train_loss.to_bits());
        assert_eq!(bits(&r.weights), bits(&g.weights), "replica {}", r.replica);
        assert_eq!(r.preds, g.preds, "replica {}", r.replica);
    }
}

#[test]
fn in_process_and_fleet_grids_are_byte_identical_and_match_run_variant() {
    let tasks = [tiny_task("Tiny", false), tiny_task("TinyBN", true)];
    let devices = [Device::v100()];
    let variants = [NoiseVariant::AlgoImpl, NoiseVariant::Impl];
    let settings = ExperimentSettings {
        replicas: 2,
        worker_timeout_ms: 60_000,
        ..ExperimentSettings::default()
    };
    let fleet = FleetOptions {
        procs: 2,
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_repro"))),
        ..FleetOptions::default()
    };

    let in_process = Scratch::new("in-process");
    let processes = Scratch::new("processes");
    let grid = |store: &CheckpointStore, fleet: Option<&FleetOptions>| -> StabilityGrid {
        let plan = stability::grid(&tasks, &devices, &variants, settings.replicas);
        let runs = run_grid(&plan.cells, &settings, Some(store), fleet).expect("grid runs");
        plan.read(&runs).expect("grid reads")
    };
    let a = grid(&in_process.0, None);
    let b = grid(&processes.0, Some(&fleet));
    assert_eq!(a.reports.len(), 4);
    let json = |g: &StabilityGrid| serde_json::to_string(g).expect("grid serializes");
    assert_eq!(
        json(&a),
        json(&b),
        "backends must produce byte-identical reports"
    );

    for task in &tasks {
        let prepared = PreparedTask::prepare(task);
        for device in &devices {
            for &variant in &variants {
                let golden = run_variant(&prepared, device, variant, &settings);
                let report = stability_report(&prepared, device, variant, &golden);
                let cell = a
                    .cell(&task.name, device.name(), variant)
                    .expect("grid covers every cell");
                assert_eq!(
                    serde_json::to_string(cell).expect("report serializes"),
                    serde_json::to_string(&report).expect("report serializes"),
                    "{} / {variant}",
                    task.name
                );
                // Both stores now hold the complete cell; reading it back
                // trains nothing and must reproduce the in-memory fleet.
                for store in [&in_process.0, &processes.0] {
                    let stored = run_cell(&prepared, device, variant, &settings, Some(store), None)
                        .expect("store harvest");
                    assert_bit_identical(&stored, &golden);
                }
            }
        }
    }
}
