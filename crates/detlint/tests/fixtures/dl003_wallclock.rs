//! DL003 fixture: wall-clock reads in result-producing paths.

use std::time::{Instant, SystemTime};

pub fn timed_loss(xs: &[f32]) -> (f32, f64) {
    let t0 = Instant::now(); // fires: Instant::now
    let loss = xs[0];
    (loss, t0.elapsed().as_secs_f64())
}

pub fn stamped_report() -> u64 {
    let stamp = SystemTime::now(); // fires: SystemTime::now
    stamp.elapsed().unwrap().as_secs()
}
