//! Process-isolated fleet execution: a supervised worker pool that runs
//! each replica in its own OS process, bit-for-bit identical to the
//! in-process [`crate::runner::run_grid`].
//!
//! The in-process supervisor recovers from everything `catch_unwind` can
//! catch — but a wedged kernel ([`hwsim::FaultKind::Hang`]) stalls the
//! thread forever, and a driver-level `abort`
//! ([`hwsim::FaultKind::Abort`]) takes the whole experiment down. Real
//! training fleets face both, so this module adds the missing isolation
//! boundary:
//!
//! - **Workers** are re-executions of the `repro` binary in a hidden
//!   `--worker` mode ([`worker_main`]). Each worker runs exactly one
//!   `(replica, attempt)` through the runner's one attempt body: it reads
//!   its [`ReplicaSpec`] from stdin, checkpoints into and writes its
//!   result to the store cell, reports liveness as heartbeat lines on
//!   stdout, and reports how it ended through its exit status.
//! - **The supervisor** ([`crate::runner::run_grid`] with
//!   [`FleetOptions`]) is the one grid driver of [`crate::runner`] with a
//!   process-spawning attempt body: it dispatches the pending replicas of
//!   every cell of a grid, from one queue, to a bounded pool of worker
//!   processes, watches each with a heartbeat watchdog plus an absolute
//!   wall-clock deadline, kills stalled workers, turns every attempt into
//!   a result or a reason (exit code, signal, missing result file, which
//!   watchdog clock fired), and re-dispatches under the same attempt loop
//!   and retry budget as in-process runs.
//! - **Durability** reuses [`crate::resume::CheckpointStore`] cells
//!   verbatim, under the store's one rule: the attempt writes `rK.ckpt`
//!   and `rK.result` (which records the attempt's index), and the
//!   supervisor writes nothing. A killed worker's retry resumes from the
//!   last durable checkpoint instead of retraining from scratch.
//!
//! **Bit-identity.** A replica is a pure function of `(task, device,
//! variant, settings, replica)`; the result crosses from worker to
//! supervisor through the store's byte-exact result file (floats as
//! `to_bits`), and supervision knobs (`worker_timeout_ms`,
//! `heartbeat_every_steps`, process count) shape only *when* workers are
//! killed, never *what* a replica computes. A fleet run — even one whose
//! workers were killed and re-dispatched — therefore reproduces the
//! in-process fleet bit-for-bit. The fleet end-to-end tests and the CI
//! golden comparison assert exactly this.
//!
//! Wire format. The supervisor writes the [`ReplicaSpec`] to the worker's
//! stdin as one line of compact JSON, made by the types' own serde
//! derives: every finite float round-trips exactly, and
//! [`ExperimentSettings::validate`] rejects non-finite ones. The worker
//! writes one kind of line to stdout, `hb <step>`, every
//! `heartbeat_every_steps` optimizer steps, and nothing else. It reports
//! how it ended through its exit status (see [`worker_main`]) and, on
//! success, the result file; a failure's reason goes to stderr, which the
//! supervisor inherits. The supervisor never runs the JSON parser on
//! bytes a worker wrote: it reads lines of bounded length, and only a
//! well-formed `hb` line resets the watchdog, so garbage on the pipe is
//! not liveness.

use crate::resume::{self, bad, CheckpointStore};
use crate::runner::{
    run_cell, train_attempt, AttemptOutcome, Cell, PreparedTask, ReplicaResult, VariantRuns,
};
use crate::settings::ExperimentSettings;
use crate::task::TaskSpec;
use crate::variant::NoiseVariant;
use hwsim::Device;
use nnet::trainer::TrainError;
use serde::{Deserialize, Serialize};
use std::ffi::OsString;
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Upper bound on the spec line a worker reads, so a runaway writer
/// cannot trigger a giant allocation.
const MAX_SPEC_LEN: u64 = 256 << 20;
/// Upper bound on a worker's stdout line; a longer one is garbage and is
/// skipped up to its newline.
const MAX_LINE_LEN: u64 = 4096;

/// Supervisor event-loop poll interval.
const POLL: Duration = Duration::from_millis(25);
/// The absolute per-attempt deadline is the watchdog window times this
/// factor — a backstop against a worker that heartbeats forever without
/// ever finishing.
const HARD_DEADLINE_FACTOR: u32 = 60;

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// Everything a worker process needs to run one `(replica, attempt)`,
/// written supervisor → worker as one JSON line on stdin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicaSpec {
    /// The task to train.
    pub task: TaskSpec,
    /// The device, every field of it: presets and [`Device::custom`]
    /// devices cross the wire alike.
    pub device: Device,
    /// The noise variant.
    pub variant: NoiseVariant,
    /// Full experiment settings (the worker derives every seed from
    /// these plus the replica index, exactly like the in-process path).
    pub settings: ExperimentSettings,
    /// Replica index.
    pub replica: u32,
    /// Which retry this is (0 = first execution); selects the chaos
    /// fault schedule.
    pub attempt: u32,
    /// The [`CheckpointStore`] cell directory: the worker resumes from
    /// its durable checkpoint here, saves a new one after every epoch and
    /// writes its result file here. A `String` because the supervisor
    /// rejects a non-UTF-8 store path before dispatch.
    pub cell_dir: String,
}

/// Writes `spec` as one line of compact JSON: the worker reads exactly
/// one line, so it never depends on when the pipe closes.
fn write_spec(w: &mut impl Write, spec: &ReplicaSpec) -> io::Result<()> {
    let mut line = serde_json::to_string(spec).map_err(|e| bad(&e.to_string()))?;
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Whether one worker line is a well-formed, newline-terminated
/// `hb <step>`.
fn is_heartbeat(line: &[u8]) -> bool {
    let step = line
        .strip_prefix(b"hb ")
        .and_then(|l| l.strip_suffix(b"\n"));
    let step = step.and_then(|step| std::str::from_utf8(step).ok());
    step.is_some_and(|step| step.parse::<u64>().is_ok())
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Entry point of the hidden `--worker` mode of the `repro` binary: runs
/// exactly one `(replica, attempt)` from a [`ReplicaSpec`] line on
/// stdin. Returns the process exit code.
///
/// Exit codes: `0` — the result file is written; `1` — training failed,
/// and its [`TrainError`] is printed on stderr; `2` — no spec, an
/// undecodable or invalid spec, or the result could not be written.
/// Training panics are *not* caught: the process dies with the standard
/// panic exit code (101) or a signal, and the supervisor reads that from
/// the outside — that asymmetry is the entire point of process isolation.
pub fn worker_main() -> i32 {
    match worker_run() {
        Ok(Ok(_)) => 0,
        Ok(Err(e)) => {
            eprintln!("fleet worker: {e}");
            1
        }
        Err(e) => {
            eprintln!("fleet worker: {e}");
            2
        }
    }
}

fn worker_run() -> io::Result<Result<ReplicaResult, TrainError>> {
    let mut line = String::new();
    io::stdin().lock().take(MAX_SPEC_LEN).read_line(&mut line)?;
    let spec: ReplicaSpec =
        serde_json::from_str(&line).map_err(|e| bad(&format!("undecodable spec: {e}")))?;
    spec.settings
        .validate_for(&spec.task)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let prepared = PreparedTask::prepare(&spec.task);

    let stdout = io::stdout();
    // If the supervisor disappears mid-run its pipe breaks; stop
    // emitting instead of erroring out — the watchdog (or init) reaps us.
    let mut pipe_dead = false;
    let mut heartbeat = |step: u64| {
        if !pipe_dead {
            let mut out = stdout.lock();
            pipe_dead = writeln!(out, "hb {step}")
                .and_then(|()| out.flush())
                .is_err();
        }
    };
    train_attempt(
        &prepared,
        &spec.device,
        spec.variant,
        &spec.settings,
        Some(Path::new(&spec.cell_dir)),
        spec.replica,
        spec.attempt,
        Some(&mut heartbeat),
    )
}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

/// Fleet-dispatch knobs.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Maximum concurrent worker processes (0 = host parallelism).
    pub procs: usize,
    /// Worker executable; `None` re-executes the current binary
    /// (`std::env::current_exe`), which is how the `repro` binary
    /// self-dispatches.
    pub worker_exe: Option<PathBuf>,
    /// Arguments handed to the worker executable.
    pub worker_args: Vec<OsString>,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            procs: 0,
            worker_exe: None,
            worker_args: vec![OsString::from("--worker")],
        }
    }
}

/// Kills and reaps the child on every exit path — early `?` returns and
/// panics included — so the supervisor can never leak a zombie or leave
/// an orphan training replica burning CPU.
struct Reaper(std::process::Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns one worker process for `spec`, feeds it the spec line, and
/// supervises it to an [`AttemptOutcome`]: heartbeat lines reset the
/// watchdog, a silent worker or one past the absolute deadline is killed,
/// and an exited worker's outcome is its result file after a clean exit,
/// else its exit status.
fn run_attempt(exe: &Path, args: &[OsString], spec: &ReplicaSpec) -> io::Result<AttemptOutcome> {
    use std::process::{Command, Stdio};
    use std::sync::mpsc;

    let child = Command::new(exe)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let mut child = Reaper(child);

    // Feed the work order and close stdin. A write failure means the
    // child died on arrival; the event loop classifies that.
    if let Some(mut stdin) = child.0.stdin.take() {
        let _ = write_spec(&mut stdin, spec);
    }

    // The reader thread is *detached*, never joined: a misbehaving worker
    // can leave a grandchild holding the stdout pipe open long after the
    // worker itself is dead, and a join would block on that stranger's
    // lifetime. The thread exits on its own at pipe EOF or on the first
    // send after `rx` is dropped.
    let mut child_out = io::BufReader::new(child.0.stdout.take().expect("stdout piped"));
    let (tx, rx) = mpsc::channel::<()>();
    let _reader = std::thread::spawn(move || {
        let mut line = Vec::new();
        // Whether the line being read has already overrun MAX_LINE_LEN.
        let mut overlong = false;
        loop {
            line.clear();
            match (&mut child_out)
                .take(MAX_LINE_LEN)
                .read_until(b'\n', &mut line)
            {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
            if !line.ends_with(b"\n") {
                overlong = true;
                continue;
            }
            // The tail of an overlong line is garbage too.
            if std::mem::take(&mut overlong) {
                continue;
            }
            if is_heartbeat(&line) && tx.send(()).is_err() {
                return;
            }
        }
    });

    let timeout = Duration::from_millis(spec.settings.worker_timeout_ms);
    let deadline = timeout.saturating_mul(HARD_DEADLINE_FACTOR);
    let start = crate::clock::now();
    let mut last_heartbeat = start;
    // Pause between exit checks once stdout is at EOF: 1 ms, doubling up
    // to POLL, so a worker is reaped about a millisecond after it exits,
    // while one that lingers after closing stdout costs a check per POLL.
    let mut eof_pause = Duration::from_millis(1);

    let exited = loop {
        match rx.recv_timeout(POLL) {
            Ok(()) => last_heartbeat = crate::clock::now(),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // Reader hit EOF: the child closed stdout and is exiting (or
            // dead). recv returns instantly now, so pace the loop.
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                std::thread::sleep(eof_pause);
                eof_pause = (eof_pause * 2).min(POLL);
            }
        }
        if let Some(status) = child.0.try_wait()? {
            break Ok(status);
        }
        // A watchdog kill: the worker is killed and reaped below. The
        // reason names the clock and its window, never a reading of it.
        let now = crate::clock::now();
        if now.duration_since(last_heartbeat) >= timeout {
            break Err(format!("no heartbeat within {} ms", timeout.as_millis()));
        }
        if now.duration_since(start) >= deadline {
            break Err(format!("no exit within {} ms", deadline.as_millis()));
        }
    };

    let result = resume::result_path(Path::new(&spec.cell_dir), spec.replica);
    let outcome = exited.and_then(|status| match status.code() {
        // The harvest's decoder: the file is what a later run loads.
        Some(0) => match std::fs::read(&result).map(|b| resume::decode_result(&b)) {
            Ok(Ok((r, _))) => Ok(r),
            _ => Err("exited cleanly without a result file".into()),
        },
        Some(code) => Err(format!("exit code {code}")),
        None => Err(signal_reason(&status)),
    });
    drop(child);
    if outcome.is_err() {
        // Only a clean exit completes a replica: a result written just
        // before a kill must not be harvested as a finished replica.
        std::fs::remove_file(&result).ok();
    }
    Ok(outcome)
}

#[cfg(unix)]
fn signal_reason(status: &std::process::ExitStatus) -> String {
    use std::os::unix::process::ExitStatusExt;
    match status.signal() {
        Some(sig) => format!("signal {sig}"),
        None => "killed by unknown cause".into(),
    }
}

#[cfg(not(unix))]
fn signal_reason(_status: &std::process::ExitStatus) -> String {
    "killed by unknown cause".into()
}

/// The attempt body of [`crate::runner::run_grid`] with a fleet: each
/// attempt of a replica of `cell` runs in its own worker process and
/// resumes from the store cell `dir`'s checkpoint.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] for a non-UTF-8 store path; the IO
/// error of resolving the current executable.
pub(crate) fn process_attempt<'a>(
    cell: &'a Cell,
    settings: &'a ExperimentSettings,
    dir: &'a Path,
    opts: &'a FleetOptions,
) -> io::Result<impl Fn(u32, u32) -> io::Result<AttemptOutcome> + Sync + 'a> {
    let cell_dir = dir.to_str().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "fleet mode requires a UTF-8 checkpoint-store path",
        )
    })?;
    let worker_exe = match &opts.worker_exe {
        Some(p) => p.clone(),
        None => std::env::current_exe()?,
    };
    Ok(move |replica, attempt| {
        let spec = ReplicaSpec {
            task: cell.task.spec.clone(),
            device: cell.device,
            variant: cell.variant,
            settings: *settings,
            replica,
            attempt,
            cell_dir: cell_dir.to_owned(),
        };
        run_attempt(&worker_exe, &opts.worker_args, &spec)
    })
}

/// [`crate::runner::run_cell`] with a store and a fleet; store cells
/// always checkpoint every epoch, so `_checkpoint_every_epochs` is unused.
///
/// # Errors
///
/// As [`crate::runner::run_cell`].
pub fn run_variant_fleet(
    prepared: &PreparedTask,
    device: &Device,
    variant: NoiseVariant,
    settings: &ExperimentSettings,
    store: &CheckpointStore,
    _checkpoint_every_epochs: u32,
    opts: &FleetOptions,
) -> io::Result<VariantRuns> {
    run_cell(prepared, device, variant, settings, Some(store), Some(opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resume::tests::Scratch;
    use crate::runner::{Preds, ReplicaStatus};
    use crate::task::{DataSource, ModelKind};
    use crate::variant::AlgoSource;
    use hwsim::{Architecture, ChaosConfig};

    /// Every float that crosses the spec line must come back with its
    /// exact bits; `f32`'s `Debug` is exact for finite values, so `Debug`
    /// equality checks every field, floats included.
    fn assert_spec_round_trips(spec: &ReplicaSpec) {
        let mut line = Vec::new();
        write_spec(&mut line, spec).expect("write to a Vec");
        assert_eq!(line.iter().filter(|&&b| b == b'\n').count(), 1);
        assert_eq!(line.last(), Some(&b'\n'), "one line, newline-terminated");
        let text = std::str::from_utf8(&line).expect("UTF-8 JSON");
        let back: ReplicaSpec = serde_json::from_str(text).expect("spec decodes");
        assert_eq!(format!("{back:?}"), format!("{spec:?}"));
    }

    #[test]
    fn spec_lines_round_trip_bit_exactly() {
        let devices = [
            Device::p100(),
            Device::v100(),
            Device::rtx5000(),
            Device::rtx5000_tensor_cores(),
            Device::t4(),
            Device::tpu_v2(),
            Device::cpu(),
            Device::custom("SWEEP-GPU", Architecture::Volta, 640, false, false, 14.9),
            // A subnormal clock.
            Device::custom("TINY", Architecture::Cpu, 1, true, true, f32::from_bits(1)),
        ];
        let chaos = Some(ChaosConfig::parse("7:1,0,1,1@250!").expect("chaos parses"));
        // A task whose floats are a subnormal, -0.0 and f32::MAX.
        let mut edge = TaskSpec::small_cnn_cifar10();
        edge.model = ModelKind::SmallCnnDropout {
            rate: f32::MIN_POSITIVE / 2.0,
        };
        if let DataSource::Gaussian(g) = &mut edge.data {
            g.class_sep = -0.0;
            g.noise_std = f32::MAX;
        }
        let tasks = [
            TaskSpec::small_cnn_cifar10(),
            TaskSpec::small_cnn_bn_cifar10(),
            TaskSpec::resnet18_cifar10(),
            TaskSpec::resnet18_cifar100(),
            TaskSpec::resnet50_imagenet(),
            TaskSpec::celeba(),
            edge,
        ];
        let variants = [
            NoiseVariant::Impl,
            NoiseVariant::AlgoOnly(AlgoSource::Augment),
        ];
        for (i, mut task) in tasks.into_iter().enumerate() {
            task.train.shuffle_seed_override = Some(u64::MAX);
            task.train.dropout_seed_override = Some(0);
            for (j, device) in devices.iter().enumerate() {
                let spec = ReplicaSpec {
                    task: task.clone(),
                    device: *device,
                    variant: variants[(i + j) % 2],
                    settings: ExperimentSettings {
                        base_seed: u64::MAX,
                        chaos: if (i + j) % 3 == 0 { None } else { chaos },
                        ..ExperimentSettings::default()
                    },
                    replica: 3,
                    attempt: 1,
                    cell_dir: "/tmp/ns-cell/ü".into(),
                };
                assert_spec_round_trips(&spec);
            }
        }
    }

    // -- supervision paths that need no real worker binary: fake workers
    //    built from /bin/sh exercise classification and the watchdog. --

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

    #[cfg(unix)]
    fn sh_fleet(script: &str) -> FleetOptions {
        FleetOptions {
            procs: 2,
            worker_exe: Some(PathBuf::from("/bin/sh")),
            worker_args: vec![OsString::from("-c"), OsString::from(script)],
        }
    }

    #[cfg(unix)]
    fn fast_settings() -> ExperimentSettings {
        ExperimentSettings {
            replicas: 2,
            retry_budget: 1,
            worker_timeout_ms: 400,
            ..ExperimentSettings::default()
        }
    }

    #[test]
    fn fleet_rejects_invalid_settings() {
        let scratch = Scratch::new("reject");
        let prepared = PreparedTask::prepare(&tiny_task());
        let bad = ExperimentSettings {
            replicas: 0,
            ..ExperimentSettings::default()
        };
        let err = run_variant_fleet(
            &prepared,
            &Device::cpu(),
            NoiseVariant::Control,
            &bad,
            &scratch.0,
            0,
            &FleetOptions::default(),
        )
        .expect_err("zero replicas must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn a_fleet_without_a_store_is_invalid_input() {
        let prepared = PreparedTask::prepare(&tiny_task());
        let err = crate::runner::run_cell(
            &prepared,
            &Device::cpu(),
            NoiseVariant::Control,
            &ExperimentSettings::default(),
            None,
            Some(&FleetOptions::default()),
        )
        .expect_err("workers checkpoint into the store");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    #[cfg(unix)]
    fn crashing_workers_are_classified_and_exhaust_into_crashed() {
        let scratch = Scratch::new("crash");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = fast_settings();
        let runs = run_variant_fleet(
            &prepared,
            &Device::v100(),
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
            &sh_fleet("exit 7"),
        )
        .expect("a crashing fleet degrades, never errors");
        assert!(runs.results.is_empty());
        assert_eq!(runs.failed_replicas(), vec![0, 1]);
        for s in &runs.statuses {
            match s {
                ReplicaStatus::Failed { reason } => {
                    assert!(reason.contains("exit code 7"), "{reason}");
                    assert!(reason.contains("2 attempts exhausted"), "{reason}");
                }
                other => panic!("expected Failed, got {other:?}"),
            }
        }
        // The cell stays resumable: no result on disk, so both replicas
        // train again on the next run.
        let dir = scratch
            .0
            .cell_dir(&prepared.spec, &Device::v100(), NoiseVariant::Impl);
        for r in 0..2 {
            assert!(!resume::result_path(&dir, r).exists(), "replica {r}");
        }
    }

    #[test]
    #[cfg(unix)]
    fn signal_killed_workers_are_classified_as_signals() {
        let scratch = Scratch::new("signal");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            replicas: 1,
            retry_budget: 0,
            ..fast_settings()
        };
        let runs = run_variant_fleet(
            &prepared,
            &Device::v100(),
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
            &sh_fleet("kill -ABRT $$"),
        )
        .expect("an aborting fleet degrades, never errors");
        match &runs.statuses[0] {
            ReplicaStatus::Failed { reason } => {
                assert_eq!(reason, "1 attempts exhausted; last: signal 6");
            }
            other => panic!("expected Failed(signal 6), got {other:?}"),
        }
    }

    #[test]
    #[cfg(unix)]
    fn silent_workers_are_killed_by_the_watchdog() {
        let scratch = Scratch::new("watchdog");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            replicas: 1,
            retry_budget: 1,
            worker_timeout_ms: 300,
            ..ExperimentSettings::default()
        };
        let start = crate::clock::now();
        let runs = run_variant_fleet(
            &prepared,
            &Device::v100(),
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
            // Sleeps far beyond the watchdog window; emits nothing.
            &sh_fleet("sleep 30"),
        )
        .expect("a hung fleet degrades, never errors");
        let reason = "2 attempts exhausted; last: no heartbeat within 300 ms";
        assert_eq!(
            runs.statuses[0],
            ReplicaStatus::Failed {
                reason: reason.into()
            },
            "both attempts must be killed by the watchdog"
        );
        // Two 300 ms windows — if this took anywhere near a sleep(30),
        // the watchdog never fired.
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "watchdog must kill silent workers promptly"
        );
    }

    #[test]
    #[cfg(unix)]
    fn a_clean_exit_without_a_result_file_is_crashed() {
        let scratch = Scratch::new("noresult");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            replicas: 1,
            retry_budget: 0,
            ..fast_settings()
        };
        let runs = run_variant_fleet(
            &prepared,
            &Device::v100(),
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
            &sh_fleet("exit 0"),
        )
        .expect("a resultless fleet degrades, never errors");
        match &runs.statuses[0] {
            ReplicaStatus::Failed { reason } => {
                assert!(reason.contains("without a result file"), "{reason}");
                assert!(reason.starts_with("1 attempts exhausted"), "{reason}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    #[cfg(unix)]
    fn a_result_left_by_a_crashed_worker_is_not_harvested() {
        let scratch = Scratch::new("leftover");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            replicas: 1,
            retry_budget: 0,
            ..fast_settings()
        };
        let dir = scratch
            .0
            .cell_dir(&prepared.spec, &Device::v100(), NoiseVariant::Impl);
        let staged = scratch.0.root().join("staged.result");
        std::fs::create_dir_all(scratch.0.root()).expect("mkdir");
        let result = ReplicaResult {
            replica: 0,
            accuracy: 0.5,
            preds: Preds::Classes(vec![1]),
            weights: vec![1.0],
            final_train_loss: 0.1,
        };
        std::fs::write(&staged, resume::encode_result(&result, 0)).expect("stage a result");
        // A worker that leaves a decodable result file, then dies.
        let script = format!(
            "cp '{}' '{}'; exit 7",
            staged.display(),
            resume::result_path(&dir, 0).display()
        );
        let runs = run_variant_fleet(
            &prepared,
            &Device::v100(),
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
            &sh_fleet(&script),
        )
        .expect("a crashing fleet degrades, never errors");
        match &runs.statuses[0] {
            ReplicaStatus::Failed { reason } => {
                assert_eq!(reason, "1 attempts exhausted; last: exit code 7");
            }
            other => panic!("expected Failed(exit code 7), got {other:?}"),
        }
        assert!(runs.results.is_empty());
        assert!(
            !resume::result_path(&dir, 0).exists(),
            "a later run would harvest it as a finished replica"
        );
    }

    #[test]
    #[cfg(unix)]
    fn heartbeat_lines_keep_a_worker_past_the_watchdog_window() {
        let scratch = Scratch::new("heartbeat");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            replicas: 1,
            retry_budget: 0,
            worker_timeout_ms: 300,
            ..ExperimentSettings::default()
        };
        let start = crate::clock::now();
        // Ten heartbeats 100 ms apart: a second of life under a 300 ms
        // watchdog, then a crash the supervisor must see as one.
        let script = "for i in 1 2 3 4 5 6 7 8 9 10; do echo \"hb $i\"; sleep 0.1; done; exit 7";
        let runs = run_variant_fleet(
            &prepared,
            &Device::v100(),
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
            &sh_fleet(script),
        )
        .expect("a crashing fleet degrades, never errors");
        match &runs.statuses[0] {
            ReplicaStatus::Failed { reason } => {
                assert_eq!(reason, "1 attempts exhausted; last: exit code 7");
            }
            other => panic!("expected Failed(exit code 7), got {other:?}"),
        }
        assert!(start.elapsed() >= Duration::from_millis(900));
    }

    #[test]
    #[cfg(unix)]
    fn an_exited_worker_is_reaped_without_a_poll_interval() {
        let scratch = Scratch::new("prompt");
        std::fs::create_dir_all(scratch.0.root()).expect("mkdir");
        let spec = ReplicaSpec {
            task: tiny_task(),
            device: Device::v100(),
            variant: NoiseVariant::Impl,
            settings: fast_settings(),
            replica: 0,
            attempt: 0,
            cell_dir: scratch.0.root().to_str().expect("UTF-8 path").to_owned(),
        };
        let (exe, args) = (
            Path::new("/bin/sh"),
            [OsString::from("-c"), OsString::from("exit 7")],
        );
        let start = crate::clock::now();
        for _ in 0..10 {
            match run_attempt(exe, &args, &spec).expect("spawn /bin/sh") {
                Err(reason) => assert_eq!(reason, "exit code 7"),
                Ok(_) => panic!("expected Err(exit code 7)"),
            }
        }
        // An attempt that sleeps a whole POLL after stdout's EOF makes
        // ten of them take 10 × POLL by themselves.
        assert!(
            start.elapsed() < 10 * POLL,
            "ten attempts took {:?}",
            start.elapsed()
        );
    }

    #[test]
    #[cfg(unix)]
    fn garbage_on_stdout_is_not_liveness() {
        let scratch = Scratch::new("garbage");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            replicas: 1,
            retry_budget: 0,
            worker_timeout_ms: 300,
            ..ExperimentSettings::default()
        };
        let start = crate::clock::now();
        // 10 MiB without a newline, then a malformed line every 50 ms: if
        // either counted as liveness, only the 18 s deadline would end it.
        let script = "head -c 10485760 /dev/zero | tr '\\0' x; \
                      while :; do echo 'hb nope'; sleep 0.05; done";
        let runs = run_variant_fleet(
            &prepared,
            &Device::v100(),
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
            &sh_fleet(script),
        )
        .expect("a garbage-spewing fleet degrades, never errors");
        let reason = "1 attempts exhausted; last: no heartbeat within 300 ms";
        assert_eq!(
            runs.statuses[0],
            ReplicaStatus::Failed {
                reason: reason.into()
            }
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the watchdog must fire despite the garbage"
        );
    }
}
