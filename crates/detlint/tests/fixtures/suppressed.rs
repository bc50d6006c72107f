//! Suppression fixture: the same hazards as the rule fixtures, each
//! silenced by a well-formed `detlint::allow`. Must scan clean with one
//! suppressed finding per suppressible rule and no unused-allow warnings.

use std::collections::HashMap;
use std::time::Instant;

pub fn debug_dump(agg: &HashMap<String, f64>) -> Vec<f64> {
    // detlint::allow(DL001, reason = "debug helper; output order is irrelevant")
    agg.values().copied().collect()
}

pub fn jitter() -> u64 {
    rand::random() // detlint::allow(DL002, reason = "backoff jitter, not experiment randomness")
}

pub fn diagnostics() -> f64 {
    let t0 = Instant::now(); // detlint::allow(DL003, reason = "log line only, never serialized into results")
    t0.elapsed().as_secs_f64()
}

pub fn tiny_total(xs: [f32; 4]) -> f32 {
    xs.iter().sum() // detlint::allow(DL004, reason = "fixed 4-element array, order is static")
}

pub fn bounded_parallel(xs: &[f64]) -> f64 {
    xs.par_iter().map(|x| x.round()).sum() // detlint::allow(DL005, reason = "integral values; addition is exact")
}

pub fn parallel_then_accumulated(xs: &[f64]) -> f64 {
    let parts: Vec<f64> = xs.par_iter().map(|x| x * 2.0).collect();
    let mut total = 0.0;
    for p in &parts {
        // detlint::allow(DL006, reason = "two shards at most; order fixed by construction")
        total += p;
    }
    total
}

pub fn jittered_worker(rng: &mut StreamRng, scope: &Scope<'_>) {
    let backoff = rng.next_u64();
    // detlint::allow(DL007, reason = "backoff jitter shapes timing only, never results")
    scope.spawn(move || wait_and_go(backoff));
}

pub fn debug_verbosity() -> u32 {
    let raw = std::env::var("NS_DEBUG_VERBOSITY").unwrap_or_default();
    // detlint::allow(DL008, reason = "debug log verbosity; never touches results")
    raw.parse::<u32>().unwrap_or(0)
}
