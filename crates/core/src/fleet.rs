//! Process-isolated fleet execution: a supervised worker pool that runs
//! each replica in its own OS process, bit-for-bit identical to the
//! in-process [`crate::runner::run_cell`].
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
//!   `(replica, attempt)`, reads its [`ReplicaSpec`] from stdin and
//!   writes [`Heartbeat`] / result / [`WorkerFault`] frames to stdout.
//! - **The supervisor** ([`crate::runner::run_cell`] with
//!   [`FleetOptions`]) is the one cell driver of [`crate::runner`] with a
//!   process-spawning attempt body: it
//!   dispatches pending replicas to a bounded pool of worker processes,
//!   watches each with a heartbeat watchdog plus an absolute wall-clock
//!   deadline, kills stalled or crashed workers, classifies how they died
//!   (clean exit / panic exit code / signal / timeout), and re-dispatches
//!   under the same attempt loop and retry budget as in-process runs,
//!   with a deterministic capped-exponential backoff between attempts.
//! - **Durability** reuses [`crate::resume::CheckpointStore`] cells
//!   verbatim: workers sink epoch checkpoints to the cell directory, so
//!   a killed worker's retry resumes from the last durable checkpoint
//!   instead of retraining from scratch; completed results/statuses are
//!   written by the supervisor (single writer) in the exact format an
//!   in-process run over the same store reads.
//!
//! **Bit-identity.** A replica is a pure function of `(task, device,
//! variant, settings, replica)`; the IPC layer ships results with the
//! byte-exact codec of [`crate::resume`] (floats as `to_bits`), and
//! supervision knobs (`worker_timeout_ms`, `heartbeat_every_steps`,
//! process count) shape only *when* workers are killed, never *what* a
//! replica computes. A fleet run — even one whose workers were killed
//! and re-dispatched — therefore reproduces the in-process fleet
//! bit-for-bit. The fleet end-to-end tests and the CI golden comparison
//! assert exactly this.
//!
//! Wire format. The supervisor writes the [`ReplicaSpec`] to the worker's
//! stdin as one line of compact JSON, made by the types' own serde
//! derives: every finite float round-trips exactly, and
//! [`ExperimentSettings::validate`] rejects non-finite ones. Frames run
//! worker → supervisor only (all integers little-endian):
//!
//! ```text
//! frame  := magic:u32 version:u32 len:u32 payload[len]
//! payload:= tag:u8 body
//! tags   : 2 heartbeat, 3 result, 4 fault
//! ```
//!
//! Frames stay binary: result weights must cross byte-exact, and the
//! supervisor never runs the JSON parser (recursive descent, no depth
//! bound) on bytes a worker wrote. The decoder treats anything malformed
//! — bad magic, unknown version, oversized length, undecodable payload —
//! as corruption and resynchronizes by scanning forward one byte at a
//! time, so a torn or garbled stream degrades into skipped bytes, never a
//! wedged supervisor.

use crate::resume::{self, bad, CheckpointStore, Reader};
use crate::runner::{
    run_cell, run_replica_with, AttemptOutcome, PreparedTask, ReplicaResult, VariantRuns,
};
use crate::settings::ExperimentSettings;
use crate::task::TaskSpec;
use crate::variant::NoiseVariant;
use hwsim::Device;
use nnet::checkpoint::Checkpoint;
use nnet::trainer::FitOptions;
use serde::{Deserialize, Serialize};
use std::ffi::OsString;
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic prefix of every IPC frame ("NSFL").
pub const FRAME_MAGIC: u32 = 0x4E53_464C;
/// Wire-protocol version; a mismatch is treated as corruption.
pub const PROTOCOL_VERSION: u32 = 3;
/// Upper bound on a frame payload, and on the spec line a worker reads.
/// A length above this is corruption (a real result frame is a few
/// hundred KiB), and capping it keeps a garbled length field from
/// triggering a giant allocation.
pub const MAX_FRAME_LEN: u32 = 256 << 20;

const TAG_HEARTBEAT: u8 = 2;
const TAG_RESULT: u8 = 3;
const TAG_FAULT: u8 = 4;

/// Supervisor event-loop poll interval.
const POLL: Duration = Duration::from_millis(25);
/// After a worker exits, how long the supervisor waits for in-flight
/// frames when the pipe has not reached EOF (an orphaned grandchild can
/// hold it open indefinitely).
const DRAIN_GRACE: Duration = Duration::from_millis(500);
/// The absolute per-attempt deadline is the watchdog window times this
/// factor — a backstop against a worker that heartbeats forever without
/// ever finishing.
const HARD_DEADLINE_FACTOR: u32 = 60;
/// First retry backoff; doubles per retry up to [`BACKOFF_CAP_MS`].
const BACKOFF_BASE_MS: u64 = 50;
/// Retry backoff ceiling.
const BACKOFF_CAP_MS: u64 = 2000;

/// Monotonic-clock shim for supervision deadlines.
///
/// Reading the wall clock in result-producing code is exactly what
/// detlint's DL003 exists to catch, but a watchdog cannot exist without
/// a clock. This module is the one sanctioned source of time in the
/// fleet layer: deadlines and stall detection only — nothing read here
/// ever feeds a replica result, a report, or any other experiment
/// artifact. Raw `Instant::now()` anywhere else in this file still
/// trips DL003 (asserted by a fixture test).
pub mod clock {
    use std::time::Instant;

    /// The current monotonic instant, for supervision deadlines only.
    pub fn now() -> Instant {
        // detlint::allow(DL003, reason = "watchdog deadlines only; never feeds replica results or reports")
        Instant::now()
    }
}

// ---------------------------------------------------------------------------
// Wire types
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
    /// its durable checkpoint here and saves a new one after every epoch.
    /// A `String` because the supervisor rejects a non-UTF-8 store path
    /// before dispatch.
    pub cell_dir: String,
}

/// Worker liveness proof, emitted every
/// [`ExperimentSettings::heartbeat_every_steps`] optimizer steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// Replica index.
    pub replica: u32,
    /// Attempt number.
    pub attempt: u32,
    /// Global optimizer step reached.
    pub step: u64,
}

/// A structured training failure the worker survived long enough to
/// report (launch failure, divergence, ...). The graceful sibling of a
/// crash: the worker still exits 0 after delivering this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFault {
    /// Replica index.
    pub replica: u32,
    /// Attempt number.
    pub attempt: u32,
    /// Rendered [`nnet::trainer::TrainError`].
    pub reason: String,
}

/// One worker → supervisor IPC frame.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Liveness.
    Heartbeat(Heartbeat),
    /// The finished replica (byte-exact floats, the same codec
    /// [`crate::resume`] persists).
    Result(Box<ReplicaResult>),
    /// A graceful training failure.
    Fault(WorkerFault),
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// Writes `spec` as one line of compact JSON: the worker reads exactly
/// one line, so it never depends on when the pipe closes.
fn write_spec(w: &mut impl Write, spec: &ReplicaSpec) -> io::Result<()> {
    let mut line = serde_json::to_string(spec).map_err(|e| bad(&e.to_string()))?;
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Little-endian frame payload writer; [`decode_payload`] must visit
/// fields in the same order, which the round-trip tests pin down.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut e = Enc::default();
    match frame {
        Frame::Heartbeat(h) => {
            e.u8(TAG_HEARTBEAT);
            e.u32(h.replica);
            e.u32(h.attempt);
            e.u64(h.step);
        }
        Frame::Result(r) => {
            e.u8(TAG_RESULT);
            // The byte-exact result codec shared with the checkpoint
            // store: what crosses the pipe is what lands on disk.
            e.buf.extend_from_slice(&resume::encode_result(r));
        }
        Frame::Fault(f) => {
            e.u8(TAG_FAULT);
            e.u32(f.replica);
            e.u32(f.attempt);
            e.str(&f.reason);
        }
    }
    e.buf
}

fn decode_payload(payload: &[u8]) -> io::Result<Frame> {
    let mut d = Reader::new(payload);
    let frame = match d.u8()? {
        TAG_HEARTBEAT => Frame::Heartbeat(Heartbeat {
            replica: d.u32()?,
            attempt: d.u32()?,
            step: d.u64()?,
        }),
        TAG_RESULT => {
            // `decode_result` enforces its own trailing-bytes check.
            return Ok(Frame::Result(Box::new(resume::decode_result(
                &payload[1..],
            )?)));
        }
        TAG_FAULT => Frame::Fault(WorkerFault {
            replica: d.u32()?,
            attempt: d.u32()?,
            reason: d.str()?,
        }),
        t => return Err(bad(&format!("unknown frame tag {t}"))),
    };
    if !d.is_done() {
        return Err(bad("trailing bytes"));
    }
    Ok(frame)
}

/// Encodes one length-prefixed frame (header + payload).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

/// Incremental frame decoder over an arbitrarily-chunked byte stream.
///
/// Feed bytes with [`FrameDecoder::push`]; drain complete frames with
/// [`FrameDecoder::next_frame`]. Corruption — bad magic, wrong version,
/// an oversized length, an undecodable payload — is never fatal: the
/// decoder advances one byte and rescans for the next plausible header,
/// counting what it discarded in [`FrameDecoder::skipped`]. A partial
/// frame simply waits for more bytes.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    skipped: u64,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes discarded while resynchronizing past corruption.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// The next complete frame, or `None` until more bytes arrive.
    pub fn next_frame(&mut self) -> Option<Frame> {
        loop {
            let rem = &self.buf[self.pos..];
            if rem.len() < 12 {
                self.compact();
                return None;
            }
            let magic = u32::from_le_bytes(rem[0..4].try_into().expect("4 bytes"));
            let version = u32::from_le_bytes(rem[4..8].try_into().expect("4 bytes"));
            let len = u32::from_le_bytes(rem[8..12].try_into().expect("4 bytes"));
            if magic != FRAME_MAGIC || version != PROTOCOL_VERSION || len > MAX_FRAME_LEN {
                self.pos += 1;
                self.skipped += 1;
                continue;
            }
            let total = 12 + len as usize;
            if rem.len() < total {
                self.compact();
                return None;
            }
            match decode_payload(&rem[12..total]) {
                Ok(frame) => {
                    self.pos += total;
                    self.compact();
                    return Some(frame);
                }
                Err(_) => {
                    // A header-shaped prefix over garbage; a true frame
                    // may start inside it, so advance one byte, not
                    // `total`.
                    self.pos += 1;
                    self.skipped += 1;
                }
            }
        }
    }

    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Entry point of the hidden `--worker` mode of the `repro` binary: runs
/// exactly one `(replica, attempt)` from a [`ReplicaSpec`] line on
/// stdin and reports over stdout. Returns the process exit code.
///
/// Exit codes: `0` — protocol complete (a result *or* a graceful
/// [`WorkerFault`] was delivered); `2` — the worker could not even start
/// (no spec, an undecodable or invalid spec). Training panics are *not*
/// caught: the process dies with the standard panic exit code (101) or a
/// signal, and the supervisor classifies that from the outside — that
/// asymmetry is the entire point of process isolation.
pub fn worker_main() -> i32 {
    match worker_run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("fleet worker: {e}");
            2
        }
    }
}

fn worker_run() -> io::Result<()> {
    let mut line = String::new();
    io::stdin()
        .lock()
        .take(u64::from(MAX_FRAME_LEN))
        .read_line(&mut line)?;
    let spec: ReplicaSpec =
        serde_json::from_str(&line).map_err(|e| bad(&format!("undecodable spec: {e}")))?;
    spec.settings
        .validate_for(&spec.task)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let prepared = PreparedTask::prepare(&spec.task);

    // Resume from the cell's durable checkpoint if one survived a prior
    // (killed) attempt.
    let ckpt = resume::ckpt_path(Path::new(&spec.cell_dir), spec.replica);
    let resume_from = resume::load_checkpoint(&ckpt);

    let stdout = io::stdout();
    let (replica, attempt) = (spec.replica, spec.attempt);
    // If the supervisor disappears mid-run its pipe breaks; stop
    // emitting instead of erroring out — the watchdog (or init) reaps us.
    let mut pipe_dead = false;
    let mut heartbeat = |step: u64| {
        if !pipe_dead {
            let hb = Frame::Heartbeat(Heartbeat {
                replica,
                attempt,
                step,
            });
            pipe_dead = write_frame(&mut stdout.lock(), &hb).is_err();
        }
    };
    // Checkpoint saves are best-effort: a failed save costs a retry its
    // resume point, never the attempt itself.
    let mut sink = |c: &Checkpoint| {
        c.save(&ckpt).ok();
    };

    let outcome = run_replica_with(
        &prepared,
        &spec.device,
        spec.variant,
        &spec.settings,
        replica,
        attempt,
        FitOptions {
            resume: resume_from.as_ref(),
            sink: Some(&mut sink),
            progress_every_steps: spec.settings.heartbeat_every_steps,
            progress: Some(&mut heartbeat),
        },
    );
    let frame = match outcome {
        Ok(result) => Frame::Result(Box::new(result)),
        Err(err) => Frame::Fault(WorkerFault {
            replica,
            attempt,
            reason: err.to_string(),
        }),
    };
    write_frame(&mut stdout.lock(), &frame)
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

/// Deterministic capped exponential backoff before retry `attempt` (≥ 1):
/// 50 ms, 100 ms, 200 ms, ... capped at 2 s. Deterministic because
/// retries must be as replayable as everything else here.
fn backoff_ms(attempt: u32) -> u64 {
    (BACKOFF_BASE_MS << (attempt - 1).min(16)).min(BACKOFF_CAP_MS)
}

/// Spawns one worker process for `spec`, feeds it the spec line, and
/// supervises it to an [`AttemptOutcome`]: frames reset the watchdog, a
/// silent worker or one past the absolute deadline is killed, and an
/// exited worker is classified from its frames and exit status.
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
    let mut child_out = child.0.stdout.take().expect("stdout piped");
    let (tx, rx) = mpsc::channel::<Frame>();
    let _reader = std::thread::spawn(move || {
        let mut dec = FrameDecoder::new();
        let mut buf = [0u8; 8192];
        loop {
            match child_out.read(&mut buf) {
                Ok(0) | Err(_) => return,
                Ok(n) => {
                    dec.push(&buf[..n]);
                    while let Some(frame) = dec.next_frame() {
                        if tx.send(frame).is_err() {
                            return;
                        }
                    }
                }
            }
        }
    });

    let timeout = Duration::from_millis(spec.settings.worker_timeout_ms);
    let deadline = timeout.saturating_mul(HARD_DEADLINE_FACTOR);
    let start = clock::now();
    let mut last_frame = start;
    let mut result: Option<ReplicaResult> = None;
    let mut fault: Option<String> = None;
    let note = |frame: Frame, result: &mut Option<ReplicaResult>, fault: &mut Option<String>| {
        match frame {
            Frame::Heartbeat(_) => {}
            Frame::Result(r) => *result = Some(*r),
            Frame::Fault(f) => *fault = Some(f.reason),
        }
    };

    let exited = loop {
        match rx.recv_timeout(POLL) {
            Ok(frame) => {
                last_frame = clock::now();
                note(frame, &mut result, &mut fault);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // Reader hit EOF: the child closed stdout and is exiting (or
            // dead). recv returns instantly now, so pace the loop.
            Err(mpsc::RecvTimeoutError::Disconnected) => std::thread::sleep(POLL),
        }
        if let Some(status) = child.0.try_wait()? {
            break Some(status);
        }
        let now = clock::now();
        if now.duration_since(last_frame) >= timeout || now.duration_since(start) >= deadline {
            break None;
        }
    };

    let Some(status) = exited else {
        // Watchdog fired: kill and reap the worker.
        drop(child);
        return Ok(AttemptOutcome::TimedOut);
    };
    // The pipe may still hold frames the event loop never saw (e.g. the
    // result of a worker that finished between polls). The worker flushed
    // before exiting, so they arrive promptly; the grace window only
    // matters when an orphaned grandchild keeps the pipe from EOF.
    let grace = clock::now();
    loop {
        match rx.recv_timeout(POLL) {
            Ok(frame) => note(frame, &mut result, &mut fault),
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if clock::now().duration_since(grace) >= DRAIN_GRACE {
                    break;
                }
            }
        }
    }
    drop(child);

    Ok(if let Some(reason) = fault {
        AttemptOutcome::Faulted(reason)
    } else if status.success() {
        match result {
            Some(r) if r.replica == spec.replica => AttemptOutcome::Clean(Box::new(r)),
            Some(r) => AttemptOutcome::Crashed(format!(
                "protocol violation: result for replica {} on replica {}'s pipe",
                r.replica, spec.replica
            )),
            None => AttemptOutcome::Crashed("exited cleanly without a result frame".into()),
        }
    } else if let Some(code) = status.code() {
        AttemptOutcome::Crashed(format!("exit code {code}"))
    } else {
        classify_signal(&status)
    })
}

#[cfg(unix)]
fn classify_signal(status: &std::process::ExitStatus) -> AttemptOutcome {
    use std::os::unix::process::ExitStatusExt;
    match status.signal() {
        Some(sig) => AttemptOutcome::Crashed(format!("signal {sig}")),
        None => AttemptOutcome::Crashed("killed by unknown cause".into()),
    }
}

#[cfg(not(unix))]
fn classify_signal(_status: &std::process::ExitStatus) -> AttemptOutcome {
    AttemptOutcome::Crashed("killed by unknown cause".into())
}

/// The attempt body of [`crate::runner::run_cell`] with a fleet: each
/// attempt runs in its own worker process (after a deterministic backoff
/// on retries) and resumes from the store cell `dir`'s checkpoint.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] for a non-UTF-8 store path; the IO
/// error of resolving the current executable.
pub(crate) fn process_attempt<'a>(
    prepared: &'a PreparedTask,
    device: &'a Device,
    variant: NoiseVariant,
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
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(backoff_ms(attempt)));
        }
        let spec = ReplicaSpec {
            task: prepared.spec.clone(),
            device: *device,
            variant,
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
    use proptest::prelude::*;

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
        let chaos = Some(ChaosConfig::parse("7:1,0,2,1,1@250!").expect("chaos parses"));
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

    #[test]
    fn heartbeat_fault_and_result_frames_round_trip() {
        let mut dec = FrameDecoder::new();
        let hb = Heartbeat {
            replica: 5,
            attempt: 2,
            step: 1 << 40,
        };
        dec.push(&encode_frame(&Frame::Heartbeat(hb)));
        assert!(matches!(dec.next_frame(), Some(Frame::Heartbeat(h)) if h == hb));

        let fault = WorkerFault {
            replica: 1,
            attempt: 0,
            reason: "kernel launch failure at step 12".into(),
        };
        dec.push(&encode_frame(&Frame::Fault(fault.clone())));
        assert!(matches!(dec.next_frame(), Some(Frame::Fault(f)) if f == fault));

        let result = ReplicaResult {
            replica: 9,
            accuracy: 0.71,
            preds: Preds::Classes(vec![1, 2, 0]),
            weights: vec![0.5, -1.25e-30, f32::MIN_POSITIVE],
            final_train_loss: 0.03,
        };
        dec.push(&encode_frame(&Frame::Result(Box::new(result.clone()))));
        let Some(Frame::Result(back)) = dec.next_frame() else {
            panic!("result frame did not decode");
        };
        assert_eq!(back.replica, result.replica);
        assert_eq!(back.accuracy.to_bits(), result.accuracy.to_bits());
        assert_eq!(back.preds, result.preds);
        let bits = |ws: &[f32]| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.weights), bits(&result.weights));
        assert_eq!(dec.skipped(), 0);
    }

    #[test]
    fn decoder_reassembles_byte_by_byte() {
        let frames = [
            encode_frame(&Frame::Heartbeat(Heartbeat {
                replica: 0,
                attempt: 0,
                step: 4,
            })),
            encode_frame(&Frame::Fault(WorkerFault {
                replica: 0,
                attempt: 0,
                reason: "x".into(),
            })),
        ];
        let mut dec = FrameDecoder::new();
        let mut got = 0;
        for byte in frames.iter().flatten() {
            dec.push(&[*byte]);
            while dec.next_frame().is_some() {
                got += 1;
            }
        }
        assert_eq!(got, 2);
        assert_eq!(dec.skipped(), 0);
    }

    #[test]
    fn decoder_resyncs_past_garbage_and_corrupt_headers() {
        let hb = encode_frame(&Frame::Heartbeat(Heartbeat {
            replica: 7,
            attempt: 1,
            step: 99,
        }));
        let mut stream = b"not a frame at all".to_vec();
        // A plausible header whose length field is absurd: must be
        // skipped, not allocated or waited for.
        stream.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        stream.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        // A real header over a garbage payload (bad tag).
        stream.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        stream.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        stream.extend_from_slice(&2u32.to_le_bytes());
        stream.extend_from_slice(&[0xEE, 0xEE]);
        // A wrong-version frame.
        stream.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        stream.extend_from_slice(&99u32.to_le_bytes());
        stream.extend_from_slice(&0u32.to_le_bytes());
        stream.extend_from_slice(&hb);
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        let Some(Frame::Heartbeat(h)) = dec.next_frame() else {
            panic!("heartbeat not recovered after garbage");
        };
        assert_eq!(h.step, 99);
        assert!(dec.skipped() > 0, "corruption must be counted");
        assert!(dec.next_frame().is_none());
    }

    proptest! {
        #[test]
        fn frame_stream_survives_torn_buffers(
            beats in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u64>()), 1..6),
            garbage in proptest::collection::vec(any::<u8>(), 0..40),
            chunk in 1usize..17,
        ) {
            // Garbage may not contain a frame-magic prefix byte sequence;
            // with 40 arbitrary bytes the odds of a full valid frame are
            // nil, but scrub magic bytes anyway to keep the property exact.
            let mut garbage = garbage;
            for b in &mut garbage {
                if *b == (FRAME_MAGIC & 0xFF) as u8 {
                    *b = 0;
                }
            }
            let mut stream = garbage.clone();
            let mut want = Vec::new();
            for (replica, attempt, step) in beats {
                let hb = Heartbeat { replica, attempt, step };
                want.push(hb);
                stream.extend_from_slice(&encode_frame(&Frame::Heartbeat(hb)));
            }
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                dec.push(piece);
                while let Some(frame) = dec.next_frame() {
                    match frame {
                        Frame::Heartbeat(h) => got.push(h),
                        other => prop_assert!(false, "unexpected frame {other:?}"),
                    }
                }
            }
            prop_assert_eq!(got, want);
            prop_assert_eq!(dec.skipped(), garbage.len() as u64);
        }
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        assert_eq!(backoff_ms(1), 50);
        assert_eq!(backoff_ms(2), 100);
        assert_eq!(backoff_ms(3), 200);
        assert_eq!(backoff_ms(10), BACKOFF_CAP_MS);
        assert_eq!(backoff_ms(u32::MAX), BACKOFF_CAP_MS);
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
                ReplicaStatus::Crashed { reason } => {
                    assert!(reason.contains("exit code 7"), "{reason}");
                    assert!(reason.contains("2 attempts"), "{reason}");
                }
                other => panic!("expected Crashed, got {other:?}"),
            }
        }
        // The cell stays resumable: statuses on disk, flagged incomplete.
        let dir = scratch
            .0
            .cell_dir(&prepared.spec, &Device::v100(), NoiseVariant::Impl);
        let manifest = std::fs::read_to_string(dir.join("manifest.txt")).expect("manifest");
        assert!(manifest.contains("crashed"), "{manifest}");
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
            ReplicaStatus::Crashed { reason } => {
                assert!(reason.contains("signal 6"), "{reason}");
            }
            other => panic!("expected Crashed(signal 6), got {other:?}"),
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
        let start = clock::now();
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
        assert_eq!(
            runs.statuses[0],
            ReplicaStatus::TimedOut { attempts: 2 },
            "both attempts must be killed by the watchdog"
        );
        // Two 300 ms windows plus backoff — if this took anywhere near a
        // sleep(30), the watchdog never fired.
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "watchdog must kill silent workers promptly"
        );
    }

    #[test]
    #[cfg(unix)]
    fn graceful_fault_frames_classify_as_failed_not_crashed() {
        let scratch = Scratch::new("fault");
        let prepared = PreparedTask::prepare(&tiny_task());
        let settings = ExperimentSettings {
            replicas: 1,
            retry_budget: 0,
            ..fast_settings()
        };
        // A fake worker that delivers a well-formed fault frame and exits
        // cleanly, like a real worker reporting a TrainError.
        let fault = encode_frame(&Frame::Fault(WorkerFault {
            replica: 0,
            attempt: 0,
            reason: "injected kernel launch failure".into(),
        }));
        let hex: String = fault.iter().map(|b| format!("\\{:03o}", b)).collect();
        let runs = run_variant_fleet(
            &prepared,
            &Device::v100(),
            NoiseVariant::Impl,
            &settings,
            &scratch.0,
            0,
            &sh_fleet(&format!("printf '{hex}'")),
        )
        .expect("a faulting fleet degrades, never errors");
        match &runs.statuses[0] {
            ReplicaStatus::Failed { reason } => {
                assert!(
                    reason.contains("injected kernel launch failure"),
                    "{reason}"
                );
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }
}
