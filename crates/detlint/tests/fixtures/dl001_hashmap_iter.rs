//! DL001 fixture: hash-container iteration feeding order-sensitive sinks.
//! Every block here must fire; this file is excluded from workspace scans.

use std::collections::{HashMap, HashSet};

pub fn collect_values(agg: HashMap<String, f64>) -> Vec<f64> {
    agg.into_values().collect() // fires: collect from HashMap
}

pub fn serialize_keys(index: &HashMap<String, u32>) -> String {
    index.keys().cloned().collect::<Vec<_>>().join(",") // fires: join
}

pub fn print_members(seen: &HashSet<u64>) {
    for id in seen.iter() { // fires: output sink inside the loop body
        println!("{id}");
    }
}

pub fn accumulate(weights: HashMap<u32, f64>, out: &mut Vec<f64>) {
    for (_, w) in &weights { // fires: accumulation inside the loop body
        out.push(*w);
    }
}

pub fn compound_accumulate(weights: &HashMap<u32, f64>) -> f64 {
    let mut total = 0.0;
    for (_, w) in weights.iter() { // fires: float `+=` inside the loop body
        total += w;
    }
    total
}
