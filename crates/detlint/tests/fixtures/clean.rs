//! Clean fixture: patterns that look adjacent to the hazards but are
//! deterministic. Must produce zero findings.

use std::collections::BTreeMap;

pub fn ordered_collect(agg: BTreeMap<String, f64>) -> Vec<f64> {
    agg.into_values().collect() // BTreeMap iterates in key order
}

pub fn sized_lookup(index: &HashMap<String, u32>, key: &str) -> Option<u32> {
    let n = index.len(); // size queries don't observe order
    index.get(key).copied().map(|v| v + n as u32)
}

pub fn integer_sum(counts: &[u64]) -> u64 {
    counts.iter().sum() // integer addition is associative
}

pub fn float_max(xs: &[f64]) -> f64 {
    xs.iter().fold(f64::MIN, |a, b| a.max(*b)) // max is order-insensitive
}

pub fn seeded_rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed) // explicit seed, no ambient entropy
}

pub fn ordered_total(xs: &[f64]) -> f64 {
    sum_ordered_f64(xs) // fixed left-to-right order, run-stable bit pattern
}

pub fn sharded_total(parts: &[Vec<f64>]) -> f64 {
    // reduce each shard in index order, then combine in index order
    let per_shard: Vec<f64> = parts.iter().map(|p| sum_ordered_f64(p)).collect();
    sum_ordered_f64(&per_shard)
}
