//! Loss functions.

use nstensor::{ops, Tensor};

/// Softmax cross-entropy over class logits.
///
/// Returns `(mean_loss, dlogits)` where `dlogits = (softmax − onehot)/N`.
///
/// # Panics
///
/// Panics if `logits` is not `[N, C]` with `labels.len() == N`, or a label
/// is out of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[u32]) -> (f32, Tensor) {
    assert_eq!(logits.shape().rank(), 2, "logits must be [N, C]");
    let (n, c) = (logits.shape().dim(0), logits.shape().dim(1));
    assert_eq!(labels.len(), n, "label count mismatch");
    let mut probs = logits.clone();
    ops::softmax_rows(&mut probs).expect("softmax shape");
    let mut loss = 0f64;
    let inv_n = 1.0 / n as f32;
    let mut grad = probs.clone();
    {
        let gv = grad.as_mut_slice();
        let pv = probs.as_slice();
        for (i, &label) in labels.iter().enumerate() {
            let label = label as usize;
            assert!(label < c, "label {label} out of range for {c} classes");
            loss -= (pv[i * c + label].max(1e-12) as f64).ln();
            gv[i * c + label] -= 1.0;
        }
        for v in gv.iter_mut() {
            *v *= inv_n;
        }
    }
    ((loss / n as f64) as f32, grad)
}

/// Mean sigmoid binary cross-entropy over `[N, A]` logits against `{0, 1}`
/// targets — the multi-label objective used for CelebA-style attribute
/// prediction.
///
/// Returns `(mean_loss, dlogits)` with `dlogits = (σ(z) − t)/(N·A)`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn sigmoid_bce(logits: &Tensor, targets: &Tensor) -> (f32, Tensor) {
    assert_eq!(logits.shape(), targets.shape(), "logits/targets mismatch");
    let count = logits.len().max(1) as f32;
    let mut grad = Tensor::zeros(logits.shape());
    let mut loss = 0f64;
    {
        let gv = grad.as_mut_slice();
        let zv = logits.as_slice();
        let tv = targets.as_slice();
        for i in 0..zv.len() {
            let z = zv[i] as f64;
            let t = tv[i] as f64;
            // Numerically stable: log(1+e^{-|z|}) + max(z,0) − z·t.
            loss += z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln();
            let p = 1.0 / (1.0 + (-z).exp());
            gv[i] = ((p - t) / count as f64) as f32;
        }
    }
    ((loss / count as f64) as f32, grad)
}

/// Row-wise argmax predictions from `[N, C]` logits.
///
/// # Panics
///
/// Panics if `logits` is not rank 2.
pub fn argmax_predictions(logits: &Tensor) -> Vec<u32> {
    assert_eq!(logits.shape().rank(), 2);
    let c = logits.shape().dim(1);
    logits
        .as_slice()
        .chunks(c)
        .map(|row| {
            let mut best = 0usize;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            best as u32
        })
        .collect()
}

/// Thresholded binary predictions (`σ(z) > 0.5` ⇔ `z > 0`) from logits.
pub fn binary_predictions(logits: &Tensor) -> Vec<u8> {
    logits.as_slice().iter().map(|&z| (z > 0.0) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nstensor::Shape;

    #[test]
    fn ce_loss_of_perfect_prediction_is_small() {
        let logits =
            Tensor::from_vec(Shape::of(&[2, 3]), vec![10.0, 0.0, 0.0, 0.0, 10.0, 0.0]).unwrap();
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn ce_loss_of_uniform_is_log_c() {
        let logits = Tensor::zeros(Shape::of(&[4, 10]));
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 3, 5, 9]);
        assert!((loss - (10f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn ce_gradient_matches_finite_difference() {
        let logits =
            Tensor::from_vec(Shape::of(&[2, 3]), vec![0.5, -0.2, 0.1, -1.0, 0.3, 0.8]).unwrap();
        let labels = [2u32, 1];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for i in 0..6 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &labels);
            let (fm, _) = softmax_cross_entropy(&lm, &labels);
            let fd = (fp - fm) as f64 / (2.0 * eps as f64);
            assert!(
                (fd - grad.as_slice()[i] as f64).abs() < 1e-3,
                "grad[{i}]: {fd} vs {}",
                grad.as_slice()[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ce_rejects_bad_label() {
        let logits = Tensor::zeros(Shape::of(&[1, 3]));
        softmax_cross_entropy(&logits, &[3]);
    }

    #[test]
    fn bce_gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(Shape::of(&[2, 2]), vec![0.3, -1.2, 2.0, 0.0]).unwrap();
        let targets = Tensor::from_vec(Shape::of(&[2, 2]), vec![1.0, 0.0, 1.0, 1.0]).unwrap();
        let (_, grad) = sigmoid_bce(&logits, &targets);
        let eps = 1e-3f32;
        for i in 0..4 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let (fp, _) = sigmoid_bce(&lp, &targets);
            let (fm, _) = sigmoid_bce(&lm, &targets);
            let fd = (fp - fm) as f64 / (2.0 * eps as f64);
            assert!((fd - grad.as_slice()[i] as f64).abs() < 1e-3);
        }
    }

    #[test]
    fn bce_is_stable_for_large_logits() {
        let logits = Tensor::from_vec(Shape::of(&[1, 2]), vec![80.0, -80.0]).unwrap();
        let targets = Tensor::from_vec(Shape::of(&[1, 2]), vec![1.0, 0.0]).unwrap();
        let (loss, grad) = sigmoid_bce(&logits, &targets);
        assert!(loss.is_finite() && loss < 1e-3);
        assert!(grad.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn predictions() {
        let logits =
            Tensor::from_vec(Shape::of(&[2, 3]), vec![0.1, 0.9, 0.2, 3.0, -1.0, 2.0]).unwrap();
        assert_eq!(argmax_predictions(&logits), vec![1, 0]);
        let z = Tensor::from_vec(Shape::of(&[1, 3]), vec![0.5, -0.5, 0.0]).unwrap();
        assert_eq!(binary_predictions(&z), vec![1, 0, 0]);
    }
}
