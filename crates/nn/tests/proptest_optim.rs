//! Property tests for Adam and clipping: convergence on random convex
//! quadratics and clip-norm invariants.

use fd_nn::{clip_global_norm, global_norm, Adam, Params};
use fd_tensor::Matrix;
use proptest::prelude::*;

/// Minimise f(w) = Σ cᵢ (wᵢ - tᵢ)² from w = 0; returns max |wᵢ - tᵢ|.
fn descend(opt: &mut Adam, targets: &[f32], curvature: &[f32], steps: usize) -> f32 {
    let mut params = Params::new();
    let id = params.get_or_insert("w", || Matrix::zeros(1, targets.len()));
    for _ in 0..steps {
        let w = params.value(id).clone();
        let grad = Matrix::from_fn(1, targets.len(), |_, j| {
            2.0 * curvature[j] * (w[(0, j)] - targets[j])
        });
        opt.apply(&mut params, &[(id, grad)]);
    }
    params
        .value(id)
        .row(0)
        .iter()
        .zip(targets)
        .map(|(&w, &t)| (w - t).abs())
        .fold(0.0f32, f32::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn adam_converges_on_random_quadratics(
        targets in prop::collection::vec(-3.0f32..3.0, 1..6),
        curv in prop::collection::vec(0.2f32..2.0, 6),
    ) {
        let curvature = &curv[..targets.len()];
        let gap = descend(&mut Adam::new(0.15), &targets, curvature, 400);
        prop_assert!(gap < 0.05, "gap {gap}");
    }

    #[test]
    fn clip_caps_norm_and_preserves_direction(values in prop::collection::vec(-100.0f32..100.0, 1..20), max_norm in 0.1f32..10.0) {
        let mut params = Params::new();
        let id = params.get_or_insert("g", || Matrix::zeros(1, 1));
        let mut grads = vec![(id, Matrix::row_vector(&values))];
        let before = global_norm(&grads);
        let reported = clip_global_norm(&mut grads, max_norm);
        prop_assert!((reported - before).abs() < before.max(1.0) * 1e-4);
        let after = global_norm(&grads);
        prop_assert!(after <= max_norm * (1.0 + 1e-4) + 1e-6);
        if before > 1e-6 && before > max_norm {
            // Direction preserved: clipped = scaled original.
            let scale = after / before;
            for (&orig, &clipped) in values.iter().zip(grads[0].1.row(0)) {
                prop_assert!((clipped - orig * scale).abs() < 1e-3);
            }
        }
    }
}
