//! DL006 fixture: an unordered-tainted value reaching a float
//! accumulation sink statements after the taint was introduced.
//! Positive cases carry a fires marker; the rest must stay quiet for
//! DL006 (other rules may legitimately fire on the same lines).

use std::collections::{BTreeMap, HashMap};

pub fn tainted_sum(m: &HashMap<String, f64>) -> f64 {
    let vals: Vec<f64> = m.values().cloned().collect();
    let scale = 2.0;
    let s: f64 = vals.iter().sum(); // fires: taint from line 10 reaches the sum
    s * scale
}

pub fn tainted_compound(m: &HashMap<u32, f64>) -> f64 {
    let vals: Vec<f64> = m.values().cloned().collect();
    let mut total = 0.0;
    for v in &vals {
        total += v; // fires: compound accumulation of hash-ordered elements
    }
    total
}

pub fn tainted_through_rename(m: &HashMap<String, f64>) -> f64 {
    let raw: Vec<f64> = m.values().cloned().collect();
    let renamed = raw;
    let s: f64 = renamed.iter().sum(); // fires: taint survives the rebinding
    s
}

pub fn parallel_collected(xs: &[f64]) -> f64 {
    let parts: Vec<f64> = xs.par_iter().map(|x| x * 2.0).collect();
    let total: f64 = parts.iter().sum(); // fires: par_iter collection order is scheduling-dependent
    total
}

// --- negative: sorting restores a deterministic order -----------------

pub fn sorted_then_summed(m: &HashMap<String, f64>) -> f64 {
    let mut vals: Vec<f64> = m.values().cloned().collect();
    vals.sort_by(|a, b| a.total_cmp(b));
    sum_ordered_f64(&vals)
}

// --- negative: sanctioned ordered reduction ---------------------------

pub fn sanctioned_sum(m: &HashMap<String, f64>) -> f64 {
    let vals: Vec<f64> = m.values().cloned().collect();
    sum_ordered_f64(&vals)
}

// --- negative: ordered collection clears the taint --------------------

pub fn ordered_collection(m: &HashMap<String, f64>) -> Vec<f64> {
    let ordered: BTreeMap<String, f64> = m.iter().map(|(k, v)| (k.clone(), *v)).collect();
    ordered.into_values().collect()
}

// --- negative: integer accumulation is order-insensitive --------------

pub fn integer_total(m: &HashMap<String, u32>) -> u32 {
    let counts: Vec<u32> = m.values().copied().collect();
    let n: u32 = counts.iter().sum();
    n
}

// --- negative: clean rebinding sheds the old taint --------------------

pub fn shadowed_clean(m: &HashMap<String, f64>, clean: &[f64]) -> f64 {
    let vals: Vec<f64> = m.values().cloned().collect();
    let vals: Vec<f64> = clean.to_vec();
    sum_ordered_f64(&vals)
}
