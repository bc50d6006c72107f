//! DL002 fixture: RNG state from OS entropy or wall time.

use std::time::{SystemTime, UNIX_EPOCH};

pub fn ambient_thread_rng() -> f64 {
    let mut rng = rand::thread_rng(); // fires: thread_rng
    rng.gen()
}

pub fn entropy_seeded() -> StdRng {
    StdRng::from_entropy() // fires: from_entropy
}

pub fn global_random() -> u64 {
    rand::random() // fires: rand::random
}

pub fn os_rng_direct() -> u32 {
    let mut source = OsRng; // fires: OsRng
    source.next_u32()
}

pub fn time_seed() -> u64 {
    let seed = SystemTime::now().duration_since(UNIX_EPOCH).unwrap().as_nanos() as u64; // fires: time-derived seed
    seed
}
