//! Mid-training checkpoints with a byte-exact binary codec.
//!
//! A [`Checkpoint`] captures everything `Trainer::fit_with` needs to resume
//! a run so that the continuation is *bitwise identical* to the
//! uninterrupted run: model weights and batch-norm running statistics,
//! optimizer momentum, the shuffle and augmentation RNG cursors, the
//! execution context's reducer-scheduler states, and the (shuffled)
//! sample order. Replicas are pure functions of their seeds, so byte-exact
//! state capture is both necessary and sufficient for byte-exact resume.
//!
//! # Why not JSON
//!
//! The workspace's `serde_json` stand-in is not trusted to round-trip
//! `f32` payloads bit-exactly (shortest-representation printing plus
//! re-parse). Checkpoints therefore use a hand-rolled little-endian binary
//! codec: every `f32` travels as its `to_bits()` pattern, so NaN payloads,
//! signed zeros and subnormals all survive unchanged.

use detrand::StreamSnapshot;
use hwsim::ExecSnapshot;
use nstensor::ReducerSnapshot;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Magic prefix of the checkpoint container ("NSCK").
const MAGIC: u32 = 0x4E53_434B;
/// Codec version; bump on any layout change. Version 2 appends the
/// batch-norm running statistics to `weights`, so a version-1 checkpoint
/// of a batch-norm model is rejected rather than resumed without them.
const VERSION: u32 = 2;

/// A resumable snapshot of training state at an epoch boundary.
///
/// Produced by `Trainer::fit_with` through its checkpoint sink and
/// consumed through `FitOptions::resume`. All fields are public so
/// supervisors can inspect progress without decoding heuristics.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Epochs fully completed when the snapshot was taken.
    pub epochs_done: u32,
    /// Optimizer steps taken so far.
    pub steps: u64,
    /// Mean training loss of each completed epoch.
    pub epoch_losses: Vec<f32>,
    /// Flattened model state: parameters, then batch-norm running
    /// statistics (`Network::flat_state` order).
    pub weights: Vec<f32>,
    /// SGD momentum buffers, one per parameter tensor.
    pub velocity: Vec<Vec<f32>>,
    /// Shuffle-stream RNG cursor.
    pub shuffle_rng: StreamSnapshot,
    /// Augmentation-stream RNG cursor.
    pub augment_rng: StreamSnapshot,
    /// Reducer-scheduler states of the execution context.
    pub exec: ExecSnapshot,
    /// Current sample visitation order (epoch shuffles compose, so the
    /// permutation itself is state).
    pub order: Vec<u32>,
}

/// Why a checkpoint byte stream could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// The magic prefix did not match.
    BadMagic,
    /// A known container with an unknown version.
    BadVersion(u32),
    /// Decoding succeeded but bytes were left over.
    TrailingBytes(usize),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after checkpoint")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Undecodable bytes are [`std::io::ErrorKind::InvalidData`].
impl From<CheckpointError> for std::io::Error {
    fn from(e: CheckpointError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

// --- encoder -------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

fn put_f32s(out: &mut Vec<u8>, xs: &[f32]) {
    put_u64(out, xs.len() as u64);
    for &x in xs {
        put_f32(out, x);
    }
}

fn put_stream(out: &mut Vec<u8>, s: &StreamSnapshot) {
    put_u32(out, s.key[0]);
    put_u32(out, s.key[1]);
    put_u64(out, s.counter_lo);
    put_u64(out, s.counter_hi);
    for b in s.buf {
        put_u32(out, b);
    }
    out.push(s.buf_pos);
    match s.gauss_spare {
        Some(v) => {
            out.push(1);
            put_f32(out, v);
        }
        None => out.push(0),
    }
}

// --- decoder -------------------------------------------------------------

/// Bounds-checked little-endian reader over a byte buffer: the decoder of
/// checkpoints here and of the persisted replica results downstream.
/// Every read past the end is [`CheckpointError::Truncated`], never a
/// panic.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CheckpointError::Truncated)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// An `f32` from its `to_bits` pattern.
    pub fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a `u64` length prefix of `elem_size`-byte elements, rejecting
    /// lengths the remaining buffer cannot possibly hold (corrupt files
    /// must not trigger huge allocations).
    pub fn len(&mut self, elem_size: usize) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.saturating_mul(elem_size.max(1) as u64) > remaining {
            return Err(CheckpointError::Truncated);
        }
        Ok(n as usize)
    }

    /// A length-prefixed `f32` vector.
    pub fn f32s(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let n = self.len(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f32()?);
        }
        Ok(out)
    }

    /// Checks that every byte was consumed.
    pub fn finish(self) -> Result<(), CheckpointError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(CheckpointError::TrailingBytes(n)),
        }
    }

    fn stream(&mut self) -> Result<StreamSnapshot, CheckpointError> {
        let key = [self.u32()?, self.u32()?];
        let counter_lo = self.u64()?;
        let counter_hi = self.u64()?;
        let buf = [self.u32()?, self.u32()?, self.u32()?, self.u32()?];
        let buf_pos = self.u8()?;
        let gauss_spare = match self.u8()? {
            0 => None,
            _ => Some(self.f32()?),
        };
        Ok(StreamSnapshot {
            key,
            counter_lo,
            counter_hi,
            buf,
            buf_pos,
            gauss_spare,
        })
    }
}

impl Checkpoint {
    /// Serializes to the versioned binary container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 4 * (self.weights.len() + self.order.len()));
        put_u32(&mut out, MAGIC);
        put_u32(&mut out, VERSION);
        put_u32(&mut out, self.epochs_done);
        put_u64(&mut out, self.steps);
        put_f32s(&mut out, &self.epoch_losses);
        put_f32s(&mut out, &self.weights);
        put_u64(&mut out, self.velocity.len() as u64);
        for v in &self.velocity {
            put_f32s(&mut out, v);
        }
        put_stream(&mut out, &self.shuffle_rng);
        put_stream(&mut out, &self.augment_rng);
        put_u64(&mut out, self.exec.reducers.len() as u64);
        for r in &self.exec.reducers {
            put_u64(&mut out, r.sched_state);
            put_u64(&mut out, r.invocations);
        }
        put_u64(&mut out, self.order.len() as u64);
        for &i in &self.order {
            put_u32(&mut out, i);
        }
        out
    }

    /// Decodes a checkpoint previously produced by [`Checkpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on truncation, wrong magic/version, or
    /// trailing garbage. Never panics on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(bytes);
        if r.u32()? != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let epochs_done = r.u32()?;
        let steps = r.u64()?;
        let epoch_losses = r.f32s()?;
        let weights = r.f32s()?;
        let n_vel = r.len(8)?;
        let mut velocity = Vec::with_capacity(n_vel);
        for _ in 0..n_vel {
            velocity.push(r.f32s()?);
        }
        let shuffle_rng = r.stream()?;
        let augment_rng = r.stream()?;
        let n_red = r.len(16)?;
        let mut reducers = Vec::with_capacity(n_red);
        for _ in 0..n_red {
            reducers.push(ReducerSnapshot {
                sched_state: r.u64()?,
                invocations: r.u64()?,
            });
        }
        let n_order = r.len(4)?;
        let mut order = Vec::with_capacity(n_order);
        for _ in 0..n_order {
            order.push(r.u32()?);
        }
        r.finish()?;
        Ok(Self {
            epochs_done,
            steps,
            epoch_losses,
            weights,
            velocity,
            shuffle_rng,
            augment_rng,
            exec: ExecSnapshot { reducers },
            order,
        })
    }

    /// Writes the checkpoint with [`write_atomic`], so a crash mid-write
    /// never leaves a torn checkpoint for resume to trip over.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        write_atomic(path, &self.to_bytes())
    }

    /// Loads a checkpoint written by [`Checkpoint::save`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; decode failures surface as
    /// `InvalidData`.
    pub fn load(path: &Path) -> std::io::Result<Self> {
        Ok(Self::from_bytes(&std::fs::read(path)?)?)
    }
}

/// Writes `bytes` atomically (tmp + fsync + rename), so an interrupt
/// mid-write never leaves a half-written file where a reader would look.
/// Every durable artifact of the workspace goes through it: checkpoints,
/// checkpoint-store cells and the `results/*.json` reports.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use detrand::{Philox, StreamId};

    fn sample() -> Checkpoint {
        let mut s = Philox::from_seed(7).stream(StreamId::SHUFFLE);
        let mut a = Philox::from_seed(9).stream(StreamId::AUGMENT);
        for _ in 0..5 {
            s.next_f32();
            a.normal(); // leaves a gauss spare half the time
        }
        Checkpoint {
            epochs_done: 3,
            steps: 42,
            epoch_losses: vec![1.5, 0.75, f32::MIN_POSITIVE],
            weights: vec![0.1, -0.0, f32::NAN, 2.5e-41],
            velocity: vec![vec![0.5, -0.5], vec![], vec![1.0]],
            shuffle_rng: s.snapshot(),
            augment_rng: a.snapshot(),
            exec: ExecSnapshot {
                reducers: vec![
                    ReducerSnapshot {
                        sched_state: 0xDEAD_BEEF,
                        invocations: 17,
                    };
                    5
                ],
            },
            order: vec![3, 0, 2, 1],
        }
    }

    #[test]
    fn round_trip_is_byte_exact() {
        let ck = sample();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("decode");
        // PartialEq would treat NaN != NaN; compare the re-encoding.
        assert_eq!(bytes, back.to_bytes());
        assert_eq!(back.weights[2].to_bits(), f32::NAN.to_bits());
        assert_eq!(back.weights[1].to_bits(), (-0.0f32).to_bits());
    }

    /// Known answer: the encoding of [`sample`], pinned by length and
    /// FNV-1a 64 digest. Its shuffle stream sits mid-block and its
    /// augmentation stream mid-block with a Box-Muller spare cached, so
    /// every stream field is covered. A checkpoint store written before a
    /// change resumes after it only while this holds.
    #[test]
    fn encoding_is_pinned() {
        let ck = sample();
        assert!(ck.shuffle_rng.gauss_spare.is_none());
        assert!(ck.augment_rng.gauss_spare.is_some());
        let bytes = ck.to_bytes();
        assert_eq!(
            (bytes.len(), detrand::fnv1a64(&bytes)),
            (308, 0x119b_5fda_e8f9_c4bd)
        );
    }

    #[test]
    fn rejects_malformed_input() {
        let bytes = sample().to_bytes();
        assert_eq!(
            Checkpoint::from_bytes(&bytes[..bytes.len() - 1]),
            Err(CheckpointError::Truncated)
        );
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(Checkpoint::from_bytes(&bad), Err(CheckpointError::BadMagic));
        let mut vers = bytes.clone();
        vers[4] = 99;
        assert_eq!(
            Checkpoint::from_bytes(&vers),
            Err(CheckpointError::BadVersion(99))
        );
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            Checkpoint::from_bytes(&long),
            Err(CheckpointError::TrailingBytes(1))
        );
        // A corrupt length prefix must not allocate terabytes.
        assert!(Checkpoint::from_bytes(&bytes[..16]).is_err());
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let dir = std::env::temp_dir().join("nnet-ckpt-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ck.bin");
        let ck = sample();
        ck.save(&path).expect("save");
        let back = Checkpoint::load(&path).expect("load");
        assert_eq!(ck.to_bytes(), back.to_bytes());
        std::fs::remove_file(&path).ok();
    }
}
