//! NoiseScope benchmark: replica-fleet workloads run through the public
//! `noisescope` API, with end-to-end metrics from untraced runs and
//! per-layer metrics from a separate traced run.
//!
//! See `crates/bench/noisebench/README.md` for the workloads, metrics and
//! how to run it.

pub mod digest;
pub mod kernels;
pub mod replay;
pub mod run;
pub mod stats;
pub mod sys;
pub mod tracer;
pub mod workloads;
