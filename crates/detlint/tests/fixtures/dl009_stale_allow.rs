//! DL009 fixture: stale suppressions. An allow whose rule no longer
//! fires on the covered line is itself a finding — stale allows rot into
//! false documentation of hazards that do not exist.

use std::time::Instant;

pub fn no_hazard_here(x: u64) -> u64 {
    x + 1 // detlint::allow(DL003, reason = "timing was removed in a refactor") // fires: stale
}

pub fn real_hazard() -> f64 {
    let t0 = Instant::now(); // detlint::allow(DL003, reason = "diagnostic only, never serialized")
    t0.elapsed().as_secs_f64()
}
