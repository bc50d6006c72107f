//! DL004 fixture: order-sensitive float reductions.

pub fn plain_sum(xs: &[f32]) -> f32 {
    xs.iter().sum() // fires: f32 sum (signature evidence)
}

pub fn turbofish_sum(xs: &[i64]) -> f64 {
    xs.iter().map(|&x| x as f64).sum::<f64>() // fires: f64 turbofish sum
}

pub fn additive_fold(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, x| acc + x) // fires: additive fold
}

pub fn tracked_binding(n: usize) -> Vec<f64> {
    let mut lane = [0f64; 8];
    lane[0] = n as f64;
    let total = lane.iter().sum(); // fires: binding-tracked float evidence
    vec![total]
}

pub fn product_of_probs(ps: &[f64]) -> f64 {
    ps.iter().product() // fires: float product
}

pub fn sequential_reduce(xs: &[f32]) -> f32 {
    xs.iter().copied().reduce(|a, b| a + b).unwrap_or(0.0) // fires: additive reduce
}

// --- parallel reductions: the scheduler picks the combination tree ------

pub fn parallel_sum(xs: &[f32]) -> f32 {
    xs.par_iter().sum() // fires: parallel float sum
}

pub fn parallel_reduce(xs: &[f64]) -> f64 {
    xs.into_par_iter().reduce(|| 0.0, |a, b| a + b) // fires: parallel reduce
}

pub fn parallel_chunked(xs: &[f32]) -> f32 {
    xs.par_chunks(64).map(|c| c.iter().sum::<f32>()).sum() // fires: chunked parallel sum
}

// --- negative: a comparison reduce is order-insensitive ----------------

pub fn largest(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(|a, b| if b > a { b } else { a })
}
