//! Adam over a [`Params`] store — the optimiser of every trained model
//! in the workspace.
//!
//! Per-parameter state is keyed by [`ParamId`] index, so it survives
//! parameters that only receive gradients on some steps (e.g. embedding
//! rows, entity-specific heads).

use crate::params::{ParamId, Params};
use fd_tensor::Matrix;

/// Adam (Kingma & Ba 2015) with bias correction.
///
/// Moment state is kept in dense vectors indexed by [`ParamId::index`]
/// (not a map) so one update step can hand each thread a disjoint
/// `(param, m, v, grad)` tuple. Every tensor's own update runs
/// sequentially on one thread, so the result is bit-identical for any
/// `FD_THREADS` value.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Adam with the standard β₁ = 0.9, β₂ = 0.999, ε = 1e-8.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, step: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Snapshots the optimiser state for checkpointing. Moments are
    /// keyed by parameter *name* (resolved through `params`) rather
    /// than raw index, so a restore into a freshly rebuilt network is
    /// robust as long as parameter names match.
    pub fn export_state(&self, params: &Params) -> AdamState {
        let moments = |side: &[Option<Matrix>]| {
            side.iter()
                .enumerate()
                .filter_map(|(i, slot)| {
                    let m = slot.as_ref()?;
                    // Dense state can be wider than the param store if a
                    // gradient arrived for an id the store since forgot;
                    // that cannot happen in practice (ids come from the
                    // store), so the lookup is infallible here.
                    Some((params.name(ParamId(i)).to_string(), m.clone()))
                })
                .collect()
        };
        AdamState { step: self.step, m: moments(&self.m), v: moments(&self.v) }
    }

    /// Applies one update from `(id, gradient)` pairs produced by
    /// [`crate::Binding::grads`].
    pub fn apply(&mut self, params: &mut Params, grads: &[(ParamId, Matrix)]) {
        self.update(params, grads, false);
    }

    /// Lazy ("sparse") variant of [`Adam::apply`] for minibatch steps
    /// where most embedding-table rows receive no gradient: rows whose
    /// gradient is entirely zero are skipped outright — their weights are
    /// not touched and their moment estimates are *not* decayed, so an
    /// embedding row's Adam trajectory depends only on the steps that
    /// actually touched it (the standard lazy-Adam semantics). For rows
    /// with any non-zero gradient entry the update is bit-identical to
    /// the dense [`Adam::apply`] given the same moments and step count.
    /// Row skipping is data-dependent but deterministic, and each tensor
    /// still updates sequentially on one thread, so results stay
    /// bit-identical for any `FD_THREADS`.
    pub fn apply_sparse(&mut self, params: &mut Params, grads: &[(ParamId, Matrix)]) {
        self.update(params, grads, true);
    }

    /// Replaces the learning rate.
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// One Adam step over every tensor with a gradient; `lazy` skips the
    /// rows whose gradient is all zero.
    fn update(&mut self, params: &mut Params, grads: &[(ParamId, Matrix)], lazy: bool) {
        self.step += 1;
        let bc1 = 1.0 - self.beta1.powi(self.step as i32);
        let bc2 = 1.0 - self.beta2.powi(self.step as i32);
        let Some(max_idx) = grads.iter().map(|(id, _)| id.index()).max() else {
            return;
        };
        let width = params.len().max(max_idx + 1);
        if self.m.len() < width {
            self.m.resize_with(width, || None);
            self.v.resize_with(width, || None);
        }
        let mut gradient_of: Vec<Option<&Matrix>> = vec![None; width];
        for (id, g) in grads {
            gradient_of[id.index()] = Some(g);
            for slot in [&mut self.m[id.index()], &mut self.v[id.index()]] {
                if slot.is_none() {
                    *slot = Some(Matrix::zeros(g.rows(), g.cols()));
                }
            }
        }
        let scalars: usize = grads.iter().map(|(_, g)| g.len()).sum();
        let mut tasks: Vec<(&mut Matrix, &mut Matrix, &mut Matrix, &Matrix)> = params
            .values_mut()
            .iter_mut()
            .zip(&mut self.m)
            .zip(&mut self.v)
            .enumerate()
            .filter_map(|(i, ((p, m), v))| {
                let g = gradient_of[i]?;
                Some((p, m.as_mut().expect("moment ensured above"), v.as_mut().expect("moment ensured above"), g))
            })
            .collect();
        let (lr, beta1, beta2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        // ~10 flops per scalar; average tensor size gates the fork.
        let work = scalars / tasks.len().max(1) * 10;
        fd_tensor::parallel::par_for_each(&mut tasks, work, |(p, m, v, g)| {
            // A lazy step goes row by row; a dense one takes the tensor
            // as a single row. Every element's update is independent of
            // the others, so the split changes no bits.
            let row = if lazy { g.cols() } else { g.len() }.max(1);
            let rows = g
                .as_slice()
                .chunks(row)
                .zip(m.as_mut_slice().chunks_mut(row))
                .zip(v.as_mut_slice().chunks_mut(row))
                .zip(p.as_mut_slice().chunks_mut(row));
            for (((g_row, m_row), v_row), p_row) in rows {
                if lazy && g_row.iter().all(|&x| x == 0.0) {
                    continue;
                }
                for ((mi, vi), &gi) in m_row.iter_mut().zip(v_row.iter_mut()).zip(g_row) {
                    *mi = beta1 * *mi + (1.0 - beta1) * gi;
                    *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
                }
                for ((pi, &mi), &vi) in p_row.iter_mut().zip(m_row.iter()).zip(v_row.iter()) {
                    let m_hat = mi / bc1;
                    let v_hat = vi / bc2;
                    *pi -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        });
    }

    /// Restores state captured by [`Adam::export_state`], replacing any
    /// moments accumulated so far. Fails if a snapshot entry names a
    /// parameter `params` does not have, or shapes disagree — both mean
    /// the checkpoint belongs to a different model configuration.
    pub fn restore_state(&mut self, params: &Params, state: &AdamState) -> Result<(), String> {
        let mut m: Vec<Option<Matrix>> = vec![None; params.len()];
        let mut v: Vec<Option<Matrix>> = vec![None; params.len()];
        for (side, slots) in [(&state.m, &mut m), (&state.v, &mut v)] {
            for (name, mat) in side {
                let id = params
                    .id_of(name)
                    .ok_or_else(|| format!("optimizer state names unknown parameter {name:?}"))?;
                let p = params.value(id);
                if (p.rows(), p.cols()) != (mat.rows(), mat.cols()) {
                    return Err(format!(
                        "optimizer state for {name:?} has shape {}x{}, parameter is {}x{}",
                        mat.rows(), mat.cols(), p.rows(), p.cols()
                    ));
                }
                slots[id.index()] = Some(mat.clone());
            }
        }
        self.m = m;
        self.v = v;
        self.step = state.step;
        Ok(())
    }
}

/// Serialisable snapshot of an [`Adam`] instance's mutable state:
/// the step counter plus first/second moments keyed by parameter name.
/// Produced by [`Adam::export_state`], consumed by
/// [`Adam::restore_state`]; the checkpoint layer persists it so a
/// resumed run continues the exact optimiser trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Update steps taken.
    pub step: u64,
    /// First moments, `(param name, moment matrix)`.
    pub m: Vec<(String, Matrix)>,
    /// Second moments.
    pub v: Vec<(String, Matrix)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimises f(w) = (w - 3)² with `opt`; returns |w - 3|.
    fn descend(opt: &mut Adam, steps: usize) -> f32 {
        let mut params = Params::new();
        let id = params.get_or_insert("w", || Matrix::row_vector(&[0.0]));
        for _ in 0..steps {
            let w = params.value(id)[(0, 0)];
            let grad = Matrix::row_vector(&[2.0 * (w - 3.0)]);
            opt.apply(&mut params, &[(id, grad)]);
        }
        (params.value(id)[(0, 0)] - 3.0).abs()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3);
        assert!(descend(&mut opt, 200) < 1e-2);
    }

    #[test]
    fn adam_state_survives_intermittent_params() {
        // A parameter that receives gradients only on odd steps must not
        // lose its moment estimates.
        let mut params = Params::new();
        let a = params.get_or_insert("a", || Matrix::row_vector(&[0.0]));
        let b = params.get_or_insert("b", || Matrix::row_vector(&[0.0]));
        let mut opt = Adam::new(0.1);
        for step in 0..50 {
            let mut grads = vec![(a, Matrix::row_vector(&[2.0 * (params.value(a)[(0, 0)] - 1.0)]))];
            if step % 2 == 1 {
                grads.push((b, Matrix::row_vector(&[2.0 * (params.value(b)[(0, 0)] - 1.0)])));
            }
            opt.apply(&mut params, &grads);
        }
        assert!((params.value(a)[(0, 0)] - 1.0).abs() < 0.1);
        assert!((params.value(b)[(0, 0)] - 1.0).abs() < 0.3);
    }

    #[test]
    fn adam_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            fd_tensor::parallel::with_thread_count(threads, || {
                let mut params = Params::new();
                let ids: Vec<_> = (0..6)
                    .map(|k| {
                        params.get_or_insert(&format!("w{k}"), || {
                            Matrix::from_fn(8, 8, |r, c| ((r * 8 + c + k) as f32).sin())
                        })
                    })
                    .collect();
                let mut opt = Adam::new(0.05);
                for step in 0..5 {
                    let grads: Vec<_> = ids
                        .iter()
                        // Skip one tensor on even steps: intermittent
                        // grads must stay intermittent under threading.
                        .filter(|id| step % 2 == 1 || id.index() != 3)
                        .map(|&id| (id, params.value(id).scale(0.1)))
                        .collect();
                    opt.apply(&mut params, &grads);
                }
                ids.iter().map(|&id| params.value(id).clone()).collect::<Vec<_>>()
            })
        };
        let (a, b) = (run(1), run(4));
        for (ma, mb) in a.iter().zip(&b) {
            assert_eq!(ma.as_slice(), mb.as_slice(), "updates must not depend on FD_THREADS");
        }
    }

    #[test]
    fn sparse_adam_skips_zero_rows_and_matches_dense_on_touched_rows() {
        let init = || {
            let mut params = Params::new();
            let id = params.get_or_insert("emb", || {
                Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32 * 0.1)
            });
            (params, id)
        };
        // Gradient touching rows 0 and 2 only.
        let grad = Matrix::from_fn(4, 3, |r, c| {
            if r % 2 == 0 { (c as f32 + 1.0) * 0.5 } else { 0.0 }
        });

        let (mut dense_params, id) = init();
        let mut dense = Adam::new(0.1);
        let (mut sparse_params, _) = init();
        let mut sparse = Adam::new(0.1);
        for _ in 0..3 {
            dense.apply(&mut dense_params, &[(id, grad.clone())]);
            sparse.apply_sparse(&mut sparse_params, &[(id, grad.clone())]);
        }
        let (d, s) = (dense_params.value(id), sparse_params.value(id));
        let untouched = init().0.value(id).clone();
        for r in 0..4 {
            for c in 0..3 {
                if r % 2 == 0 {
                    // Touched rows: bit-identical to the dense update
                    // (same step count, same moments for these rows).
                    assert_eq!(d[(r, c)].to_bits(), s[(r, c)].to_bits(), "row {r} col {c}");
                } else {
                    // Untouched rows: left strictly alone.
                    assert_eq!(s[(r, c)].to_bits(), untouched[(r, c)].to_bits());
                }
            }
        }
    }

    #[test]
    fn sparse_adam_moments_untouched_rows_do_not_decay() {
        let mut params = Params::new();
        let id = params.get_or_insert("w", || Matrix::zeros(2, 2));
        let mut opt = Adam::new(0.1);
        // Step 1 touches both rows; step 2 touches only row 0.
        opt.apply_sparse(&mut params, &[(id, Matrix::ones(2, 2))]);
        let m_after_1 = opt.export_state(&params).m[0].1.clone();
        let partial = Matrix::from_fn(2, 2, |r, _| if r == 0 { 1.0 } else { 0.0 });
        opt.apply_sparse(&mut params, &[(id, partial)]);
        let m_after_2 = opt.export_state(&params).m[0].1.clone();
        // Row 1's first moment is exactly what step 1 left there.
        assert_eq!(m_after_2[(1, 0)].to_bits(), m_after_1[(1, 0)].to_bits());
        assert_eq!(m_after_2[(1, 1)].to_bits(), m_after_1[(1, 1)].to_bits());
        // Row 0's moved.
        assert_ne!(m_after_2[(0, 0)].to_bits(), m_after_1[(0, 0)].to_bits());
    }

    #[test]
    fn sparse_adam_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| {
            fd_tensor::parallel::with_thread_count(threads, || {
                let mut params = Params::new();
                let ids: Vec<_> = (0..4)
                    .map(|k| {
                        params.get_or_insert(&format!("w{k}"), || {
                            Matrix::from_fn(6, 5, |r, c| ((r * 5 + c + k) as f32).cos())
                        })
                    })
                    .collect();
                let mut opt = Adam::new(0.05);
                for step in 0..4 {
                    let grads: Vec<_> = ids
                        .iter()
                        .map(|&id| {
                            // Zero out alternating rows so sparsity is real.
                            let w = params.value(id);
                            let g = Matrix::from_fn(w.rows(), w.cols(), |r, c| {
                                if (r + step) % 2 == 0 { w[(r, c)] * 0.1 } else { 0.0 }
                            });
                            (id, g)
                        })
                        .collect();
                    opt.apply_sparse(&mut params, &grads);
                }
                ids.iter().map(|&id| params.value(id).clone()).collect::<Vec<_>>()
            })
        };
        let (a, b) = (run(1), run(4));
        for (ma, mb) in a.iter().zip(&b) {
            assert_eq!(ma.as_slice(), mb.as_slice(), "sparse updates must not depend on FD_THREADS");
        }
    }

    /// Deterministic pseudo-gradient for the state round-trip tests.
    fn fake_grad(id: ParamId, params: &Params, step: usize) -> (ParamId, Matrix) {
        let w = params.value(id);
        let g = Matrix::from_fn(w.rows(), w.cols(), |r, c| {
            (w[(r, c)] + (step as f32 + 1.0).recip()) * 0.5
        });
        (id, g)
    }

    #[test]
    fn adam_state_roundtrip_continues_bitwise() {
        let build = || {
            let mut params = Params::new();
            let a = params.get_or_insert("a", || Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32 * 0.3 - 0.5));
            let b = params.get_or_insert("b", || Matrix::from_fn(1, 4, |_, c| c as f32 * 0.1));
            (params, a, b)
        };

        // Control: 10 uninterrupted steps.
        let (mut params, a, b) = build();
        let mut opt = Adam::new(0.05);
        for step in 0..10 {
            let grads = vec![fake_grad(a, &params, step), fake_grad(b, &params, step)];
            opt.apply(&mut params, &grads);
        }
        let control: Vec<Matrix> = vec![params.value(a).clone(), params.value(b).clone()];

        // Interrupted: snapshot at step 5, restore into a *fresh* Adam
        // over a fresh param store seeded with the step-5 weights.
        let (mut params, a, b) = build();
        let mut opt = Adam::new(0.05);
        for step in 0..5 {
            let grads = vec![fake_grad(a, &params, step), fake_grad(b, &params, step)];
            opt.apply(&mut params, &grads);
        }
        let state = opt.export_state(&params);
        assert_eq!(state.step, 5);

        let mut opt2 = Adam::new(0.05);
        opt2.restore_state(&params, &state).unwrap();
        for step in 5..10 {
            let grads = vec![fake_grad(a, &params, step), fake_grad(b, &params, step)];
            opt2.apply(&mut params, &grads);
        }
        for (got, want) in [params.value(a), params.value(b)].iter().zip(&control) {
            for (x, y) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "resume must be bit-identical");
            }
        }
    }

    #[test]
    fn adam_restore_rejects_mismatched_state() {
        let mut params = Params::new();
        let id = params.get_or_insert("w", || Matrix::zeros(2, 2));
        let mut opt = Adam::new(0.1);
        opt.apply(&mut params, &[(id, Matrix::ones(2, 2))]);
        let state = opt.export_state(&params);

        // Unknown parameter name.
        let mut other = Params::new();
        other.get_or_insert("different", || Matrix::zeros(2, 2));
        assert!(Adam::new(0.1).restore_state(&other, &state).is_err());

        // Shape mismatch.
        let mut reshaped = Params::new();
        reshaped.get_or_insert("w", || Matrix::zeros(3, 3));
        let err = Adam::new(0.1).restore_state(&reshaped, &state).unwrap_err();
        assert!(err.contains("shape"), "{err}");
    }

    #[test]
    fn adam_export_skips_parameters_without_gradients() {
        let mut params = Params::new();
        let a = params.get_or_insert("a", || Matrix::zeros(1, 1));
        params.get_or_insert("never_touched", || Matrix::zeros(1, 1));
        let mut opt = Adam::new(0.1);
        opt.apply(&mut params, &[(a, Matrix::ones(1, 1))]);
        let state = opt.export_state(&params);
        assert_eq!(state.m.len(), 1);
        assert_eq!(state.m[0].0, "a");
        // And restoring it leaves the untouched slot untouched.
        let mut opt2 = Adam::new(0.1);
        opt2.restore_state(&params, &state).unwrap();
        assert_eq!(opt2.export_state(&params).step, 1);
    }

    #[test]
    fn set_lr_roundtrips() {
        let mut o = Adam::new(0.1);
        o.set_lr(0.01);
        assert_eq!(o.lr(), 0.01);
    }
}
