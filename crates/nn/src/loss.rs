//! Softmax, cross-entropy and the joint early-exit loss.
//!
//! The paper trains all exits simultaneously with the BranchyNet joint
//! loss `J = Σ_n w_n · L(softmax(exit_n), y)` (Sec. IV-A1) and uses the
//! softmax maximum as each exit's **confidence** measure (Sec. II).

use crate::layers::Activation;
use adapex_tensor::simd;
use adapex_tensor::workspace::with_workspace;

/// Numerically-stable softmax of one logit vector.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; logits.len()];
    softmax_into(logits, &mut out);
    out
}

/// [`softmax`] into a caller-provided slice of the same length, so hot
/// loops can reuse one probability buffer.
///
/// # Panics
///
/// Panics if `out.len() != logits.len()`.
pub fn softmax_into(logits: &[f32], out: &mut [f32]) {
    assert_eq!(out.len(), logits.len(), "softmax output length");
    let max = simd::fold_max(f32::NEG_INFINITY, logits);
    // exp and the running sum stay scalar: the sum is an ordered
    // reduction, and vectorizing it would change the rounding.
    let mut sum = 0.0f32;
    for (o, &v) in out.iter_mut().zip(logits) {
        let e = (v - max).exp();
        *o = e;
        sum += e;
    }
    simd::div_scalar(out, sum);
}

/// Confidence of a softmax distribution: its maximum probability.
///
/// The paper accepts an exit whenever this value clears the confidence
/// threshold.
pub fn confidence(probs: &[f32]) -> f32 {
    simd::fold_max(0.0, probs)
}

/// Mean cross-entropy of a batch of logits against integer labels, plus
/// the gradient w.r.t. the logits scaled by `weight` (the exit's `w_n`).
///
/// # Panics
///
/// Panics if `labels.len() != logits.n` or any label is out of range.
pub fn cross_entropy_with_grad(
    logits: &Activation,
    labels: &[usize],
    weight: f32,
) -> (f32, Activation) {
    assert_eq!(labels.len(), logits.n, "one label per sample");
    let classes = logits.dims[0];
    let mut grad = Activation::zeros(logits.n, &logits.dims);
    let mut loss = 0.0f32;
    let inv_n = 1.0 / logits.n.max(1) as f32;
    with_workspace(|ws| {
        let p = &mut ws.scratch;
        p.clear();
        p.resize(classes, 0.0);
        for (i, &label) in labels.iter().enumerate() {
            assert!(label < classes, "label {label} out of range {classes}");
            softmax_into(logits.sample(i), p);
            loss -= (p[label].max(1e-12)).ln();
            let g = &mut grad.data[i * classes..(i + 1) * classes];
            for (c, (slot, &pc)) in g.iter_mut().zip(p.iter()).enumerate() {
                let target = if c == label { 1.0 } else { 0.0 };
                *slot = weight * (pc - target) * inv_n;
            }
        }
    });
    (loss * inv_n, grad)
}

/// Top-1 accuracy of a batch of logits.
///
/// # Panics
///
/// Panics if `labels.len() != logits.n`.
pub fn accuracy(logits: &Activation, labels: &[usize]) -> f64 {
    assert_eq!(labels.len(), logits.n, "one label per sample");
    if logits.n == 0 {
        return 0.0;
    }
    let classes = logits.dims[0];
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let row = logits.sample(i);
        let mut best = 0;
        for c in 1..classes {
            if row[c] > row[best] {
                best = c;
            }
        }
        if best == label {
            correct += 1;
        }
    }
    correct as f64 / logits.n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 3.0, 2.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[1] > p[2] && p[2] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax(&[1.0, 2.0]);
        let b = softmax(&[1001.0, 1002.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn confidence_is_max_prob() {
        assert_eq!(confidence(&[0.1, 0.7, 0.2]), 0.7);
    }

    #[test]
    fn cross_entropy_at_uniform_is_log_classes() {
        let logits = Activation::zeros(2, &[4]);
        let (loss, _) = cross_entropy_with_grad(&logits, &[0, 3], 1.0);
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_points_towards_target() {
        let logits = Activation::zeros(1, &[3]);
        let (_, grad) = cross_entropy_with_grad(&logits, &[1], 1.0);
        // Gradient is (p - onehot): target entry negative, others positive.
        assert!(grad.data[1] < 0.0);
        assert!(grad.data[0] > 0.0 && grad.data[2] > 0.0);
        assert!((grad.data.iter().sum::<f32>()).abs() < 1e-6);
    }

    #[test]
    fn exit_weight_scales_gradient() {
        let logits = Activation::new(vec![0.5, -0.5], 1, vec![2]);
        let (_, g1) = cross_entropy_with_grad(&logits, &[0], 1.0);
        let (_, g03) = cross_entropy_with_grad(&logits, &[0], 0.3);
        for (a, b) in g1.data.iter().zip(&g03.data) {
            assert!((b - 0.3 * a).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let logits = Activation::new(vec![0.2, -1.0, 0.7], 1, vec![3]);
        let (_, grad) = cross_entropy_with_grad(&logits, &[2], 1.0);
        let eps = 1e-3;
        for i in 0..3 {
            let mut lp = logits.clone();
            lp.data[i] += eps;
            let (loss_p, _) = cross_entropy_with_grad(&lp, &[2], 1.0);
            lp.data[i] -= 2.0 * eps;
            let (loss_m, _) = cross_entropy_with_grad(&lp, &[2], 1.0);
            let numeric = (loss_p - loss_m) / (2.0 * eps);
            assert!((numeric - grad.data[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Activation::new(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], 3, vec![2]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
    }
}
