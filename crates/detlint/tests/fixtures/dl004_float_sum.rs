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
