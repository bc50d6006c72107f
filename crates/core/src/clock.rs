//! The one source of time in `noisescope`: the fleet supervisor's
//! deadlines.
//!
//! Reading the wall clock in result-producing code is what detlint's DL003
//! catches, but a watchdog cannot exist without a clock. This file is
//! exempt from DL003 in `detlint.toml`, the way `entropy.rs`, `reduce.rs`
//! and `settings.rs` are exempt from the rules whose hazard they contain.
//! Nothing read here feeds a replica result, a report or any other
//! experiment artifact, and a raw `Instant::now()` anywhere else in the
//! crate still fires DL003.

use std::time::Instant;

/// The current monotonic instant, for supervision deadlines only.
pub(crate) fn now() -> Instant {
    Instant::now()
}
