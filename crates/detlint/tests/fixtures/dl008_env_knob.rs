//! DL008 fixture: `std::env::var` feeding a numeric path without being
//! registered in Settings. Registered names (`NS_REPLICAS` here, via the
//! test's config) are the sanctioned pattern: every knob that can change
//! results must appear in the experiment fingerprint.

pub fn sneaky_scale() -> f64 {
    let raw = std::env::var("NS_SNEAKY_SCALE").unwrap_or_default();
    raw.parse::<f64>().unwrap_or(1.0) // fires: unregistered knob parsed into a float
}

pub fn inline_knob(s: &mut Settings) {
    if let Ok(v) = std::env::var("NS_HIDDEN_GAIN") {
        s.gain = v.parse::<f64>().unwrap_or(1.0); // fires: unregistered knob reaches a numeric field
    }
}

// --- negative: registered knobs are fingerprinted ---------------------

pub fn registered_knob() -> usize {
    let raw = std::env::var("NS_REPLICAS").unwrap_or_default();
    raw.parse::<usize>().unwrap_or(4)
}

// --- negative: non-numeric reads cannot move results ------------------

pub fn label_knob() -> String {
    std::env::var("NS_RUN_LABEL").unwrap_or_default()
}
