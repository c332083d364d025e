//! Mean-squared error, the one training loss.
//!
//! The paper trains "with a goal to minimize the error between the
//! predicted value and the actual value, i.e. ‖Ŷ − Y‖" (§2.2). A row's
//! loss is `Σ (ŷ − y)² / width` and its gradient `2 (ŷ − y) / width`.
//! The batched kernels, the per-sample reference oracle and the trainer
//! all go through these helpers, so the arithmetic — and with it every
//! trained and predicted bit — is written down once. Callers validate
//! shapes first ([`crate::Mlp::check_batch_shapes`]).

use wlc_math::Matrix;

/// Mean squared error of one row: the squared residuals summed in
/// column order, then divided by the width.
pub(crate) fn mse(predicted: &[f64], target: &[f64]) -> f64 {
    let mut total = 0.0;
    for (&p, &t) in predicted.iter().zip(target) {
        let d = p - t;
        total += d * d;
    }
    total / predicted.len() as f64
}

/// [`mse`] of one row, also writing its gradient with respect to each
/// prediction into `grad`. Same bits as [`mse`] for the value.
pub(crate) fn mse_and_gradient(predicted: &[f64], target: &[f64], grad: &mut [f64]) -> f64 {
    let n = predicted.len() as f64;
    let mut total = 0.0;
    for ((o, &p), &t) in grad.iter_mut().zip(predicted).zip(target) {
        let d = p - t;
        total += d * d;
        *o = 2.0 * d / n;
    }
    total / n
}

/// Sum of per-row [`mse`] values (rows ascending) of `predicted` against
/// rows `t_r0..t_r0 + predicted.rows()` of `targets`: a band's loss
/// partial, with the targets left in the full dataset matrix.
pub(crate) fn mse_rows(predicted: &Matrix, targets: &Matrix, t_r0: usize) -> f64 {
    let mut total = 0.0;
    for r in 0..predicted.rows() {
        total += mse(predicted.row(r), targets.row(t_r0 + r));
    }
    total
}

/// [`mse_rows`] that also writes each row's gradient into the matching
/// row of `grad_out` (shaped like `predicted`).
pub(crate) fn mse_gradient_rows(
    predicted: &Matrix,
    targets: &Matrix,
    t_r0: usize,
    grad_out: &mut Matrix,
) -> f64 {
    let mut total = 0.0;
    for r in 0..predicted.rows() {
        total += mse_and_gradient(predicted.row(r), targets.row(t_r0 + r), grad_out.row_mut(r));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_known_value() {
        assert_eq!(mse(&[0.0], &[3.0]), 9.0);
        assert_eq!(mse(&[1.0, 1.0], &[1.0, 1.0]), 0.0);
        assert!((mse(&[1.0, 2.0], &[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gradients_match_numeric() {
        let predicted = [0.3, -1.2, 2.0];
        let target = [0.0, 0.5, 1.8];
        let mut grad = [f64::NAN; 3];
        let value = mse_and_gradient(&predicted, &target, &mut grad);
        assert_eq!(value.to_bits(), mse(&predicted, &target).to_bits());
        let h = 1e-6;
        for i in 0..predicted.len() {
            let (mut plus, mut minus) = (predicted, predicted);
            plus[i] += h;
            minus[i] -= h;
            let numeric = (mse(&plus, &target) - mse(&minus, &target)) / (2.0 * h);
            assert!((grad[i] - numeric).abs() < 1e-5, "component {i}");
        }
    }

    #[test]
    fn zero_loss_zero_gradient_at_optimum() {
        let mut grad = [f64::NAN; 2];
        assert_eq!(mse_and_gradient(&[1.0, 2.0], &[1.0, 2.0], &mut grad), 0.0);
        assert!(grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn row_helpers_are_bitwise_per_row() {
        let predicted = Matrix::from_fn(3, 2, |r, c| r as f64 * 0.7 - c as f64 * 0.3);
        let targets = Matrix::from_fn(5, 2, |r, c| (r + c) as f64 * 0.2);
        let mut grads = Matrix::zeros(3, 2);
        let with_grad = mse_gradient_rows(&predicted, &targets, 2, &mut grads);
        let mut expect = 0.0;
        for r in 0..3 {
            expect += mse(predicted.row(r), targets.row(2 + r));
            let mut g = [0.0; 2];
            mse_and_gradient(predicted.row(r), targets.row(2 + r), &mut g);
            assert_eq!(grads.row(r), g.as_slice(), "row {r}");
        }
        assert_eq!(with_grad.to_bits(), expect.to_bits());
        assert_eq!(
            mse_rows(&predicted, &targets, 2).to_bits(),
            expect.to_bits()
        );
    }
}
