//! Resumable fleet execution: durable per-cell progress under
//! `results/.ckpt/`.
//!
//! The reproduction driver runs large (task × device × variant) grids that
//! can be interrupted at any point — a wall-clock limit, a host failure, a
//! ctrl-C. Handing [`crate::runner::run_grid`] a [`CheckpointStore`] makes
//! those interruptions cheap instead of fatal:
//!
//! - every *completed* replica's [`ReplicaResult`] is persisted to its
//!   cell directory the moment it finishes (resume skips it entirely),
//!   with the index of the attempt that produced it, from which the
//!   harvest derives the replica's `Ok` or `Retried` status;
//! - every *in-flight* replica sinks an epoch-boundary [`Checkpoint`] to
//!   disk, so a resumed run re-enters mid-training instead of re-training
//!   from scratch.
//!
//! Because replicas are pure functions of `(task, device, variant,
//! settings, replica)` and checkpoints capture the *complete* training
//! state (weights, optimizer velocity, RNG streams, scheduler state, data
//! order), a resumed fleet is bit-identical to an uninterrupted one, and a
//! harvested replica reports the status it finished with. That property
//! is asserted by this module's tests and by the golden resume
//! integration test.
//!
//! Layout under the store root (one directory per cell):
//!
//! ```text
//! <root>/<task>/<device>/<variant>-<key>/
//!     r0.result      completed replica 0 and its attempt (binary, byte-exact floats)
//!     r1.ckpt        epoch-boundary checkpoint of in-flight replica 1
//! ```
//!
//! The replica attempt ([`crate::runner`]'s one attempt body, in process
//! and in a fleet worker alike) writes both files, and removes the
//! checkpoint once the result is durable. The supervisor writes nothing;
//! a fleet supervisor only deletes a result left by a worker it saw fail.
//! A replica that exhausts its retry budget leaves no result, so it
//! trains again on the next run.
//!
//! `<key>` is a 64-bit FNV-1a hash of the compact JSON of `(task, device,
//! variant)`, the same serde encoding the fleet ships to a worker. Every
//! field is in it, so a recipe changed under the same task name or a
//! custom device that differs in one field gets a fresh cell. JSON
//! objects serialize with sorted keys, so the key is stable across builds.
//! The settings are covered one level up, by
//! [`CheckpointStore::for_settings`].

use crate::runner::{Preds, ReplicaResult};
use crate::settings::ExperimentSettings;
use crate::task::TaskSpec;
use crate::variant::NoiseVariant;
use hwsim::Device;
pub use nnet::checkpoint::write_atomic;
use nnet::checkpoint::{Checkpoint, Reader};
use std::io;
use std::path::{Path, PathBuf};

/// Magic prefix of a persisted replica result ("NSRR").
const RESULT_MAGIC: u32 = 0x4E53_5252;
/// Result codec version (2: the producing attempt follows the replica
/// index; a version-1 file does not decode, so its replica trains again).
const RESULT_VERSION: u32 = 2;

/// A directory of durable fleet progress, rooted (by convention) at
/// `results/.ckpt/`.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    root: PathBuf,
}

/// Replaces path-hostile characters so task/device/variant names can name
/// directories ("SmallCNN CIFAR-10" → "SmallCNN_CIFAR-10").
fn path_component(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl CheckpointStore {
    /// Opens (or designates) a store rooted at `root`. No IO happens until
    /// a fleet runs.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self { root: root.into() }
    }

    /// A store scoped under `root` by a fingerprint of every settings knob
    /// that shapes replica results. Cells are keyed by (task, device,
    /// variant), so without the scope a run with a different seed, entropy
    /// salt or epoch scale would silently reuse stale cached replicas. The
    /// replica count and `exec_threads` shape no replica's bits (replica
    /// `r` derives its seeds and entropy from `r`, and the engine is
    /// bitwise invariant in its thread count), so they stay out: a run
    /// with more replicas adds them to the same cells.
    pub fn for_settings(root: impl Into<PathBuf>, settings: &ExperimentSettings) -> Self {
        let fp = format!(
            "s{}-u{}-e{}-x{:x}",
            settings.base_seed, settings.amp_ulps, settings.epochs_scale, settings.entropy_salt
        );
        Self {
            root: root.into().join(path_component(&fp)),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory holding one cell's progress (see the module docs for
    /// the layout and the key).
    pub fn cell_dir(&self, task: &TaskSpec, device: &Device, variant: NoiseVariant) -> PathBuf {
        self.root.join(cell_path(task, device, variant))
    }
}

/// A cell's directory relative to the store root: the identity of a cell,
/// which [`crate::runner::run_grid`] also queues each distinct cell by.
pub(crate) fn cell_path(task: &TaskSpec, device: &Device, variant: NoiseVariant) -> PathBuf {
    // 64-bit FNV-1a: stable across builds and platforms.
    let key = serde_json::to_string(&(task, device, variant))
        .expect("plain data always serializes")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    Path::new(&path_component(&task.name))
        .join(path_component(device.name()))
        .join(format!("{}-{key:016x}", path_component(variant.label())))
}

/// Encodes a [`ReplicaResult`] and the index of the `attempt` that
/// produced it (0 = first) with byte-exact floats (`f32::to_bits` /
/// `f64::to_bits`): a resumed fleet must reproduce an uninterrupted one
/// bit-for-bit, and a text codec cannot promise that.
pub(crate) fn encode_result(r: &ReplicaResult, attempt: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + 4 * r.weights.len());
    out.extend_from_slice(&RESULT_MAGIC.to_le_bytes());
    out.extend_from_slice(&RESULT_VERSION.to_le_bytes());
    out.extend_from_slice(&r.replica.to_le_bytes());
    out.extend_from_slice(&attempt.to_le_bytes());
    out.extend_from_slice(&r.accuracy.to_bits().to_le_bytes());
    match &r.preds {
        Preds::Classes(p) => {
            out.push(0);
            out.extend_from_slice(&(p.len() as u64).to_le_bytes());
            for &c in p {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        Preds::Binary(p) => {
            out.push(1);
            out.extend_from_slice(&(p.len() as u64).to_le_bytes());
            out.extend_from_slice(p);
        }
    }
    out.extend_from_slice(&(r.weights.len() as u64).to_le_bytes());
    for &w in &r.weights {
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&r.final_train_loss.to_bits().to_le_bytes());
    out
}

/// An [`io::ErrorKind::InvalidData`] error for undecodable bytes.
pub(crate) fn bad(detail: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.to_string())
}

/// Decodes [`encode_result`]'s bytes into the result and its attempt;
/// truncated or foreign bytes are [`io::ErrorKind::InvalidData`], never a
/// panic.
pub(crate) fn decode_result(bytes: &[u8]) -> io::Result<(ReplicaResult, u32)> {
    let mut r = Reader::new(bytes);
    if r.u32()? != RESULT_MAGIC {
        return Err(bad("bad magic"));
    }
    let version = r.u32()?;
    if version != RESULT_VERSION {
        return Err(bad(&format!("unsupported version {version}")));
    }
    let replica = r.u32()?;
    let attempt = r.u32()?;
    let accuracy = f64::from_bits(r.u64()?);
    let preds = match r.u8()? {
        0 => {
            let n = r.len(4)?;
            let mut p = Vec::with_capacity(n);
            for _ in 0..n {
                p.push(r.u32()?);
            }
            Preds::Classes(p)
        }
        1 => {
            let n = r.len(1)?;
            Preds::Binary(r.take(n)?.to_vec())
        }
        t => return Err(bad(&format!("unknown preds tag {t}"))),
    };
    let weights = r.f32s()?;
    let final_train_loss = r.f32()?;
    r.finish()?;
    let result = ReplicaResult {
        replica,
        accuracy,
        preds,
        weights,
        final_train_loss,
    };
    Ok((result, attempt))
}

pub(crate) fn result_path(dir: &Path, replica: u32) -> PathBuf {
    dir.join(format!("r{replica}.result"))
}

pub(crate) fn ckpt_path(dir: &Path, replica: u32) -> PathBuf {
    dir.join(format!("r{replica}.ckpt"))
}

/// The replica's newest epoch checkpoint, if one survived a prior
/// attempt. An unreadable one (partial write, disk corruption, ...) is
/// deleted: it must degrade to a fresh start, not kill the replica.
pub(crate) fn load_checkpoint(path: &Path) -> Option<Checkpoint> {
    match Checkpoint::load(path) {
        Ok(c) => Some(c),
        Err(e) => {
            if e.kind() != io::ErrorKind::NotFound {
                std::fs::remove_file(path).ok();
            }
            None
        }
    }
}

#[cfg(test)]
// Bit-identical resume is the property under test.
#[allow(clippy::float_cmp)]
pub(crate) mod tests {
    use super::*;
    use crate::runner::{
        run_cell, run_grid, run_replica_with, run_variant, Cell, PreparedTask, ReplicaStatus,
    };
    use crate::task::{DataSource, TaskSpec};
    use nnet::trainer::FitOptions;
    use nsdata::GaussianSpec;

    fn tiny_task() -> TaskSpec {
        let mut t = TaskSpec::small_cnn_cifar10();
        t.data = DataSource::Gaussian(GaussianSpec {
            classes: 3,
            train_per_class: 10,
            test_per_class: 6,
            ..GaussianSpec::cifar10_sim()
        });
        t.train.epochs = 4;
        t.augment = false;
        t
    }

    fn tiny_settings() -> ExperimentSettings {
        ExperimentSettings {
            replicas: 2,
            ..ExperimentSettings::default()
        }
    }

    /// A unique scratch store per test, cleaned up on drop.
    pub(crate) struct Scratch(pub(crate) CheckpointStore);

    impl Scratch {
        pub(crate) fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("noisescope-store-{tag}-{}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            Scratch(CheckpointStore::new(dir))
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            std::fs::remove_dir_all(self.0.root()).ok();
        }
    }

    #[test]
    fn result_codec_round_trips_byte_exact() {
        let r = ReplicaResult {
            replica: 7,
            accuracy: 0.687_432_109_8,
            preds: Preds::Classes(vec![0, 3, 2, 1]),
            weights: vec![1.5, -0.25, f32::MIN_POSITIVE, 1e-30],
            final_train_loss: 0.042,
        };
        let bytes = encode_result(&r, 3);
        let (back, attempt) = decode_result(&bytes).expect("decode");
        assert_eq!(attempt, 3);
        assert_eq!(back.replica, r.replica);
        assert_eq!(back.accuracy.to_bits(), r.accuracy.to_bits());
        assert_eq!(back.preds, r.preds);
        let bits = |ws: &[f32]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.weights), bits(&r.weights));
        assert_eq!(
            back.final_train_loss.to_bits(),
            r.final_train_loss.to_bits()
        );

        let b = ReplicaResult {
            preds: Preds::Binary(vec![0, 1, 1, 0]),
            ..r
        };
        let (back, _) = decode_result(&encode_result(&b, 0)).expect("decode");
        assert_eq!(back.preds, b.preds);
    }

    #[test]
    fn result_codec_rejects_malformed_input() {
        assert!(decode_result(&[]).is_err());
        assert!(decode_result(b"not a result file").is_err());
        let r = ReplicaResult {
            replica: 0,
            accuracy: 0.5,
            preds: Preds::Classes(vec![1]),
            weights: vec![1.0],
            final_train_loss: 0.1,
        };
        let mut bytes = encode_result(&r, 0);
        bytes.truncate(bytes.len() - 2);
        assert!(decode_result(&bytes).is_err());
        let mut bytes = encode_result(&r, 0);
        bytes.push(0);
        assert!(decode_result(&bytes).is_err());
        // A file of the previous codec version trains its replica again.
        let mut bytes = encode_result(&r, 0);
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(decode_result(&bytes).is_err());
    }

    #[test]
    fn resumable_fleet_matches_in_memory_fleet() {
        let scratch = Scratch::new("fresh");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let device = Device::v100();
        let baseline = run_variant(&prepared, &device, NoiseVariant::Impl, &settings);
        let durable = run_cell(
            &prepared,
            &device,
            NoiseVariant::Impl,
            &settings,
            Some(&scratch.0),
            None,
        )
        .expect("resumable fleet");
        assert_eq!(durable.statuses, baseline.statuses);
        for (a, b) in baseline.results.iter().zip(&durable.results) {
            assert_eq!(a.weights, b.weights);
            assert_eq!(a.preds, b.preds);
        }
        let dir = scratch
            .0
            .cell_dir(&prepared.spec, &device, NoiseVariant::Impl);
        assert!(result_path(&dir, 0).exists());
        assert!(result_path(&dir, 1).exists());
        assert!(
            !ckpt_path(&dir, 0).exists(),
            "completed replicas clean up their checkpoints"
        );
    }

    #[test]
    fn a_resumed_cell_keeps_the_statuses_of_its_retried_replicas() {
        // Transient chaos faults every replica's first attempt, so every
        // replica finishes on a retry. A cell cut down to its result files,
        // as a run killed right after the last result write leaves it, must
        // still report those retries.
        let scratch = Scratch::new("retried");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            retry_budget: 1,
            chaos: hwsim::ChaosConfig::parse("17:1,0,0,0"),
            ..tiny_settings()
        };
        let (device, imp) = (Device::v100(), NoiseVariant::Impl);
        let run = || run_cell(&prepared, &device, imp, &settings, Some(&scratch.0), None);
        let first = run().expect("first run");
        let retried = ReplicaStatus::Retried { attempts: 2 };
        assert_eq!(first.statuses, [retried.clone(), retried]);
        let dir = scratch.0.cell_dir(&prepared.spec, &device, imp);
        for entry in std::fs::read_dir(&dir).expect("cell") {
            let path = entry.expect("cell entry").path();
            if path.extension().is_none_or(|e| e != "result") {
                std::fs::remove_file(&path).expect("remove");
            }
        }
        let resumed = run().expect("resumed run");
        assert_eq!(resumed.statuses, first.statuses);
        for (a, b) in first.results.iter().zip(&resumed.results) {
            assert_eq!(a.weights, b.weights, "replica {}", a.replica);
        }
    }

    #[cfg(unix)]
    #[test]
    fn more_replicas_extend_the_cells_of_a_settings_store() {
        // Raising the replica count keeps the store: a rerun at 3 replicas
        // harvests r0 and r1 untouched and trains only r2.
        use std::os::unix::fs::MetadataExt;
        let root = Scratch::new("morereps");
        let prepared = PreparedTask::prepare(&tiny_task());
        let (device, imp) = (Device::v100(), NoiseVariant::Impl);
        let mut stores = Vec::new();
        for replicas in [2, 3] {
            let settings = ExperimentSettings {
                replicas,
                ..tiny_settings()
            };
            let store = CheckpointStore::for_settings(root.0.root(), &settings);
            let cells = Cell::grid([prepared.clone()], &[device], &[imp], replicas);
            let runs = run_grid(&cells, &settings, Some(&store), None).expect("grid");
            let fresh = run_variant(&prepared, &device, imp, &settings);
            assert_eq!(runs[0].statuses, fresh.statuses);
            for (a, b) in fresh.results.iter().zip(&runs[0].results) {
                assert_eq!(a.weights, b.weights, "replica {}", a.replica);
            }
            let dir = store.cell_dir(&prepared.spec, &device, imp);
            let ino = |r| {
                std::fs::metadata(result_path(&dir, r))
                    .expect("result")
                    .ino()
            };
            let inodes: Vec<u64> = (0..replicas).map(ino).collect();
            stores.push((store.root().to_owned(), inodes));
        }
        let ((first, two), (second, three)) = (&stores[0], &stores[1]);
        assert_eq!(first, second, "one store for both replica counts");
        assert_eq!(
            two[..],
            three[..2],
            "r0 and r1 are harvested, not retrained"
        );
    }

    #[test]
    fn mid_fleet_resume_skips_completed_replicas_bit_identically() {
        let scratch = Scratch::new("midfleet");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let device = Device::v100();

        // Interrupted first pass: only replica 0 completed.
        let one = ExperimentSettings {
            replicas: 1,
            ..settings
        };
        let first = run_cell(
            &prepared,
            &device,
            NoiseVariant::Impl,
            &one,
            Some(&scratch.0),
            None,
        )
        .expect("first pass");
        assert_eq!(first.results.len(), 1);

        // Resume with the full fleet: replica 0 loads from disk (we corrupt
        // nothing but a re-train would be detected below anyway), replica 1
        // trains fresh.
        let resumed = run_cell(
            &prepared,
            &device,
            NoiseVariant::Impl,
            &settings,
            Some(&scratch.0),
            None,
        )
        .expect("resumed pass");
        let reference = run_variant(&prepared, &device, NoiseVariant::Impl, &settings);
        assert_eq!(resumed.results.len(), 2);
        for (a, b) in reference.results.iter().zip(&resumed.results) {
            assert_eq!(a.weights, b.weights, "replica {}", a.replica);
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        }
    }

    #[test]
    fn mid_grid_resume_equals_per_cell_runs() {
        // One store holds a complete cell, a cell with only r0 done and no
        // trace of a third: the grid over all three must equal three
        // uninterrupted per-cell fleets.
        let scratch = Scratch::new("midgrid");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let device = Device::v100();
        let variants = [
            NoiseVariant::Impl,
            NoiseVariant::AlgoImpl,
            NoiseVariant::Algo,
        ];
        let one = ExperimentSettings {
            replicas: 1,
            ..settings
        };
        let store = Some(&scratch.0);
        run_cell(&prepared, &device, variants[0], &settings, store, None).expect("complete cell");
        run_cell(&prepared, &device, variants[1], &one, store, None).expect("r0 of a cell");

        let cells = Cell::grid([prepared.clone()], &[device], &variants, settings.replicas);
        let grid = run_grid(&cells, &settings, store, None).expect("grid");
        assert_eq!(grid.len(), variants.len());
        for (runs, variant) in grid.iter().zip(variants) {
            let reference = run_variant(&prepared, &device, variant, &settings);
            assert_eq!(runs.variant, variant);
            assert_eq!(runs.statuses, reference.statuses, "{variant}");
            assert_eq!(runs.results.len(), reference.results.len(), "{variant}");
            for (a, b) in reference.results.iter().zip(&runs.results) {
                assert_eq!(a.weights, b.weights, "{variant} replica {}", a.replica);
                assert_eq!(a.preds, b.preds, "{variant} replica {}", a.replica);
            }
        }
    }

    #[test]
    fn mid_training_resume_from_epoch_checkpoint_is_bit_identical() {
        let scratch = Scratch::new("midtrain");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let device = Device::v100();
        let dir = scratch
            .0
            .cell_dir(&prepared.spec, &device, NoiseVariant::Impl);
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Simulate an interrupted replica 0: capture its epoch-2 checkpoint
        // (as the durable sink would have) and plant it in the store.
        let mut planted: Option<Checkpoint> = None;
        let mut sink = |c: &Checkpoint| {
            if c.epochs_done == 2 {
                planted = Some(c.clone());
            }
        };
        run_replica_with(
            &prepared,
            &device,
            NoiseVariant::Impl,
            &settings,
            0,
            0,
            FitOptions {
                sink: Some(&mut sink),
                ..FitOptions::default()
            },
        )
        .expect("probe replica");
        planted
            .expect("4-epoch run checkpoints at epoch 2")
            .save(&ckpt_path(&dir, 0))
            .expect("plant checkpoint");

        let resumed = run_cell(
            &prepared,
            &device,
            NoiseVariant::Impl,
            &settings,
            Some(&scratch.0),
            None,
        )
        .expect("resumed fleet");
        let reference = run_variant(&prepared, &device, NoiseVariant::Impl, &settings);
        for (a, b) in reference.results.iter().zip(&resumed.results) {
            assert_eq!(
                a.weights, b.weights,
                "replica {} resumed mid-training must be bit-identical",
                a.replica
            );
            assert_eq!(a.preds, b.preds);
        }
    }

    #[test]
    fn entropy_salt_scopes_the_settings_store() {
        // Two runs on one store root that differ only in entropy salt must
        // not share cells: each must equal its own fresh in-memory fleet.
        let root = Scratch::new("salt");
        let prepared = PreparedTask::prepare(&tiny_task());
        let device = Device::v100();
        let mut firsts = Vec::new();
        for salt in [0xA, 0xB] {
            let settings = ExperimentSettings {
                entropy_salt: salt,
                ..tiny_settings()
            };
            let store = CheckpointStore::for_settings(root.0.root(), &settings);
            let durable = run_cell(
                &prepared,
                &device,
                NoiseVariant::Impl,
                &settings,
                Some(&store),
                None,
            )
            .expect("resumable fleet");
            let fresh = run_variant(&prepared, &device, NoiseVariant::Impl, &settings);
            assert_eq!(durable.results.len(), fresh.results.len());
            for (a, b) in fresh.results.iter().zip(&durable.results) {
                assert_eq!(
                    a.weights, b.weights,
                    "salt {salt:#x}, replica {}",
                    a.replica
                );
                assert_eq!(a.preds, b.preds, "salt {salt:#x}, replica {}", a.replica);
            }
            firsts.push(durable.results[0].weights.clone());
        }
        assert_ne!(
            firsts[0], firsts[1],
            "IMPL replicas must depend on the salt"
        );
    }

    #[test]
    fn a_recipe_change_under_the_same_name_gets_a_fresh_cell() {
        // Only `task.train` changes; the task keeps its name. The second
        // run must train the new recipe, not harvest the first run's cell.
        let scratch = Scratch::new("recipe");
        let settings = tiny_settings();
        let device = Device::v100();
        let old = PreparedTask::prepare(&tiny_task());
        let mut task = tiny_task();
        task.train.batch_size = 8;
        let new = PreparedTask::prepare(&task);
        let first = run_cell(
            &old,
            &device,
            NoiseVariant::Impl,
            &settings,
            Some(&scratch.0),
            None,
        )
        .expect("first recipe");
        let second = run_cell(
            &new,
            &device,
            NoiseVariant::Impl,
            &settings,
            Some(&scratch.0),
            None,
        )
        .expect("second recipe");
        let fresh = run_variant(&new, &device, NoiseVariant::Impl, &settings);
        assert_eq!(second.results.len(), fresh.results.len());
        for ((f, s), o) in fresh
            .results
            .iter()
            .zip(&second.results)
            .zip(&first.results)
        {
            assert_eq!(f.weights, s.weights, "replica {}", f.replica);
            assert_ne!(o.weights, s.weights, "replica {}", f.replica);
        }
    }

    #[test]
    fn custom_devices_that_differ_in_one_field_get_their_own_cells() {
        let store = CheckpointStore::new("store");
        let task = tiny_task();
        let sweep = |cores| {
            Device::custom(
                "SWEEP-GPU",
                hwsim::Architecture::Volta,
                cores,
                false,
                false,
                14.9,
            )
        };
        let dir = |device: &Device| store.cell_dir(&task, device, NoiseVariant::Impl);
        assert_ne!(dir(&sweep(640)), dir(&sweep(1280)));
        assert_eq!(dir(&sweep(640)), dir(&sweep(640)));
    }

    #[test]
    fn a_failed_checkpoint_save_costs_the_resume_point_not_the_cell() {
        let scratch = Scratch::new("ckptsquat");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let device = Device::v100();
        let dir = scratch
            .0
            .cell_dir(&prepared.spec, &device, NoiseVariant::Impl);
        // A directory squatting on replica 0's checkpoint: every save fails.
        std::fs::create_dir_all(ckpt_path(&dir, 0)).expect("plant a directory");

        let runs = run_cell(
            &prepared,
            &device,
            NoiseVariant::Impl,
            &settings,
            Some(&scratch.0),
            None,
        )
        .expect("checkpoint saves are best effort");
        let reference = run_variant(&prepared, &device, NoiseVariant::Impl, &settings);
        assert_eq!(runs.statuses, reference.statuses);
        assert_eq!(runs.results.len(), 2);
        for (a, b) in reference.results.iter().zip(&runs.results) {
            assert_eq!(a.weights, b.weights, "replica {}", a.replica);
            assert_eq!(a.preds, b.preds, "replica {}", a.replica);
        }
        assert!(result_path(&dir, 0).exists(), "result writes stay strict");
    }

    #[test]
    fn corrupt_store_files_degrade_to_retraining() {
        let scratch = Scratch::new("corrupt");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = tiny_settings();
        let device = Device::v100();
        let dir = scratch
            .0
            .cell_dir(&prepared.spec, &device, NoiseVariant::Impl);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(result_path(&dir, 0), b"torn write").expect("plant corrupt result");
        std::fs::write(ckpt_path(&dir, 1), b"torn write").expect("plant corrupt ckpt");

        let runs = run_cell(
            &prepared,
            &device,
            NoiseVariant::Impl,
            &settings,
            Some(&scratch.0),
            None,
        )
        .expect("fleet survives corrupt store files");
        let reference = run_variant(&prepared, &device, NoiseVariant::Impl, &settings);
        assert_eq!(runs.results.len(), 2);
        for (a, b) in reference.results.iter().zip(&runs.results) {
            assert_eq!(a.weights, b.weights);
        }
    }
}
