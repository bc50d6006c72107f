//! Accuracy decompositions: top-line, per-class, and per-subgroup with
//! binary error rates (FPR/FNR) — the dis-aggregated measures of the
//! paper's Figures 3-4 and Table 5.

use serde::{Deserialize, Serialize};

/// Top-line accuracy.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn accuracy<T: PartialEq>(preds: &[T], labels: &[T]) -> f64 {
    assert_eq!(preds.len(), labels.len(), "length mismatch");
    if preds.is_empty() {
        return 0.0;
    }
    preds.iter().zip(labels).filter(|(p, l)| p == l).count() as f64 / preds.len() as f64
}

/// Per-class accuracy: element `c` is the accuracy over samples whose true
/// label is `c` (`None` when the class has no samples).
///
/// # Panics
///
/// Panics if lengths differ or a label is out of range.
pub fn per_class_accuracy(preds: &[u32], labels: &[u32], classes: usize) -> Vec<Option<f64>> {
    assert_eq!(preds.len(), labels.len(), "length mismatch");
    let mut correct = vec![0usize; classes];
    let mut total = vec![0usize; classes];
    for (&p, &l) in preds.iter().zip(labels) {
        let l = l as usize;
        assert!(l < classes, "label {l} out of range");
        total[l] += 1;
        if p == l as u32 {
            correct[l] += 1;
        }
    }
    (0..classes)
        .map(|c| {
            if total[c] == 0 {
                None
            } else {
                Some(correct[c] as f64 / total[c] as f64)
            }
        })
        .collect()
}

/// Binary-classification error rates.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BinaryRates {
    /// Accuracy.
    pub accuracy: f64,
    /// False-positive rate: `FP / (FP + TN)` (0 when no negatives).
    pub fpr: f64,
    /// False-negative rate: `FN / (FN + TP)` (0 when no positives).
    pub fnr: f64,
    /// Samples covered.
    pub count: usize,
}

/// Computes accuracy/FPR/FNR of binary predictions against labels,
/// restricted to the samples where `mask` is true (pass all-true for the
/// overall rates).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn binary_rates(preds: &[u8], labels: &[u8], mask: &[bool]) -> BinaryRates {
    assert_eq!(preds.len(), labels.len(), "length mismatch");
    assert_eq!(preds.len(), mask.len(), "mask length mismatch");
    let (mut tp, mut tn, mut fp, mut fnn) = (0usize, 0usize, 0usize, 0usize);
    for i in 0..preds.len() {
        if !mask[i] {
            continue;
        }
        match (preds[i] != 0, labels[i] != 0) {
            (true, true) => tp += 1,
            (false, false) => tn += 1,
            (true, false) => fp += 1,
            (false, true) => fnn += 1,
        }
    }
    let count = tp + tn + fp + fnn;
    BinaryRates {
        accuracy: if count == 0 {
            0.0
        } else {
            (tp + tn) as f64 / count as f64
        },
        fpr: if fp + tn == 0 {
            0.0
        } else {
            fp as f64 / (fp + tn) as f64
        },
        fnr: if fnn + tp == 0 {
            0.0
        } else {
            fnn as f64 / (fnn + tp) as f64
        },
        count,
    }
}

#[cfg(test)]
// Tests assert exact float values: bit-identical replay is the property under test.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_reference() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 0]), 2.0 / 3.0);
        assert_eq!(accuracy::<u32>(&[], &[]), 0.0);
    }

    #[test]
    fn per_class_decomposition() {
        let preds = [0u32, 0, 1, 1, 2];
        let labels = [0u32, 1, 1, 1, 1];
        let pca = per_class_accuracy(&preds, &labels, 3);
        assert_eq!(pca[0], Some(1.0));
        assert_eq!(pca[1], Some(0.5));
        assert_eq!(pca[2], None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn per_class_rejects_bad_label() {
        per_class_accuracy(&[0], &[5], 3);
    }

    #[test]
    fn binary_rates_reference() {
        // preds:  1 1 0 0 1 0
        // labels: 1 0 0 1 1 0
        let preds = [1u8, 1, 0, 0, 1, 0];
        let labels = [1u8, 0, 0, 1, 1, 0];
        let mask = [true; 6];
        let r = binary_rates(&preds, &labels, &mask);
        assert_eq!(r.count, 6);
        assert!((r.accuracy - 4.0 / 6.0).abs() < 1e-12);
        // FP=1, TN=2 → FPR 1/3. FN=1, TP=2 → FNR 1/3.
        assert!((r.fpr - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.fnr - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn binary_rates_respect_mask() {
        let preds = [1u8, 0];
        let labels = [1u8, 1];
        let r = binary_rates(&preds, &labels, &[true, false]);
        assert_eq!(r.count, 1);
        assert_eq!(r.accuracy, 1.0);
        assert_eq!(r.fnr, 0.0);
    }

    #[test]
    fn binary_rates_degenerate_groups() {
        // No positives → FNR defined as 0; no negatives → FPR 0.
        let r = binary_rates(&[0u8, 0], &[0u8, 0], &[true, true]);
        assert_eq!(r.fnr, 0.0);
        assert_eq!(r.fpr, 0.0);
        let empty = binary_rates(&[1u8], &[1u8], &[false]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.accuracy, 0.0);
    }
}
