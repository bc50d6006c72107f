//! DL005 fixture: unordered parallel combinators with float reductions.

pub fn parallel_sum(xs: &[f32]) -> f32 {
    xs.par_iter().sum() // fires: parallel float sum
}

pub fn parallel_reduce(xs: &[f64]) -> f64 {
    xs.into_par_iter().reduce(|| 0.0, |a, b| a + b) // fires: parallel reduce
}

pub fn parallel_chunked(xs: &[f32]) -> f32 {
    xs.par_chunks(64).map(|c| c.iter().sum::<f32>()).sum() // fires: chunked parallel sum
}
