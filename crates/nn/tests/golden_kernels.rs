//! Golden kernel bits: the batched forward, loss and gradient entry
//! points — in-line and on the band pool — and the per-sample reference
//! gradient must reproduce the exact bits they produced when these
//! constants were recorded.
//!
//! The batch is 200 rows: three full `BAND_ROWS` bands plus a ragged
//! one, so the band-ascending fold of loss and gradient partials is
//! pinned, not just one band's arithmetic. Each engine runs the same
//! checks: `BandEngine::new(1)` stays in-line, and
//! `BandEngine::with_dispatch_threshold(2, 2)` takes the pooled path.
//!
//! Each hash is FNV-1a-64 over the little-endian `to_bits` of the
//! values, in order.

use wlc_math::Matrix;
use wlc_nn::{Activation, BandEngine, Mlp, MlpBuilder, Workspace, BAND_ROWS};

const ROWS: usize = 200;

const FORWARD_HASH: u64 = 0xd468_877a_a942_6cad;
const LOSS_BITS: u64 = 0x3fe1_fd35_9171_c784;
const GRADIENT_LOSS_BITS: u64 = 0x3fe1_fd35_9171_c785;
/// The reference oracle is bit-identical to the batched gradient, so
/// one hash pins both.
const GRADIENT_HASH: u64 = 0x3f4f_d202_a4cd_9a16;

fn fnv1a64(values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn mlp() -> Mlp {
    MlpBuilder::new(4)
        .hidden(16, Activation::logistic())
        .hidden(12, Activation::logistic())
        .output(5, Activation::identity())
        .seed(29)
        .build()
        .unwrap()
}

/// Deterministic inputs in [-0.5, 0.5) and non-linear targets.
fn data() -> (Matrix, Matrix) {
    let xs = Matrix::from_fn(ROWS, 4, |r, c| {
        ((r * 7 + c * 13 + r * c) % 31) as f64 / 31.0 - 0.5
    });
    let ys = Matrix::from_fn(ROWS, 5, |r, c| {
        let x = xs.row(r);
        x[c % 4] * x[(c + 1) % 4] + 0.25 * c as f64 - 0.1 * x[3]
    });
    (xs, ys)
}

fn engines() -> [(&'static str, BandEngine); 2] {
    [
        ("inline", BandEngine::new(1)),
        ("pooled", BandEngine::with_dispatch_threshold(2, 2)),
    ]
}

#[test]
fn batch_spans_ragged_bands() {
    assert_eq!(ROWS / BAND_ROWS, 3);
    assert_ne!(ROWS % BAND_ROWS, 0);
}

#[test]
fn forward_batch_bits_are_golden() {
    let mlp = mlp();
    let (xs, _) = data();
    for (name, mut engine) in engines() {
        let mut ws = Workspace::for_mlp(&mlp);
        let out = engine.forward_batch(&mlp, &xs, &mut ws).unwrap();
        assert_eq!(fnv1a64(out.as_slice()), FORWARD_HASH, "{name}");
    }
}

#[test]
fn batch_loss_bits_are_golden() {
    let mlp = mlp();
    let (xs, ys) = data();
    for (name, mut engine) in engines() {
        let mut ws = Workspace::for_mlp(&mlp);
        let loss = engine.batch_loss(&mlp, &xs, &ys, &mut ws).unwrap();
        assert_eq!(loss.to_bits(), LOSS_BITS, "{name}");
    }
}

#[test]
fn batch_gradient_bits_are_golden() {
    let mlp = mlp();
    let (xs, ys) = data();
    for (name, mut engine) in engines() {
        let mut ws = Workspace::for_mlp(&mlp);
        let loss = engine.batch_gradient(&mlp, &xs, &ys, &mut ws).unwrap();
        assert_eq!(loss.to_bits(), GRADIENT_LOSS_BITS, "{name} loss");
        assert_eq!(fnv1a64(ws.grad()), GRADIENT_HASH, "{name} gradient");
    }
}

#[test]
fn scalar_gradient_bits_are_golden() {
    let mlp = mlp();
    let (xs, ys) = data();
    let mut ws = Workspace::for_mlp(&mlp);
    let loss = mlp.batch_gradient_scalar_with(&xs, &ys, &mut ws).unwrap();
    assert_eq!(loss.to_bits(), GRADIENT_LOSS_BITS, "loss");
    assert_eq!(fnv1a64(ws.grad()), GRADIENT_HASH, "gradient");
}
