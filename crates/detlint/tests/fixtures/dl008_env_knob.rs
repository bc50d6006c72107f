//! DL008 fixture: environment reads outside the settings module. Every
//! knob that can change results reaches a run through ExperimentSettings,
//! which folds it into the experiment fingerprint; the settings module is
//! the rule's one exemption (`detlint.toml`), so any read elsewhere fires,
//! numeric or not.

pub fn sneaky_scale() -> f64 {
    let raw = std::env::var("NS_SNEAKY_SCALE").unwrap_or_default(); // fires: read outside settings
    raw.parse::<f64>().unwrap_or(1.0)
}

pub fn inline_knob(s: &mut Settings) {
    if let Ok(v) = env::var("NS_HIDDEN_GAIN") { // fires: a `use std::env` path counts
        s.gain = v.parse::<f64>().unwrap_or(1.0);
    }
}

pub fn label_knob() -> Option<std::ffi::OsString> {
    std::env::var_os("NS_RUN_LABEL") // fires: var_os too
}

// --- negative: not an environment variable read ------------------------

pub fn program_args() -> Vec<String> {
    std::env::args().collect()
}

pub fn build_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

pub fn local_named_var(var: u32) -> u32 {
    var + 1
}
