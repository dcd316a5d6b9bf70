//! The Gated Diffusive Unit (Section 4.2, Figure 3(b)).
//!
//! For an entity with own features `x` and neighbour-state inputs `z`
//! (e.g. subjects, for an article) and `t` (e.g. its creator):
//!
//! ```text
//! f = σ(W_f [x,z,t])            forget gate      z̃ = f ⊗ z
//! e = σ(W_e [x,z,t])            adjust gate      t̃ = e ⊗ t
//! g = σ(W_g [x,z,t])            selection gate 1
//! r = σ(W_r [x,z,t])            selection gate 2
//! h =   g ⊗ r ⊗ tanh(W_u [x, z̃, t̃])
//!     ⊕ (1-g) ⊗ r ⊗ tanh(W_u [x, z, t̃])
//!     ⊕ g ⊗ (1-r) ⊗ tanh(W_u [x, z̃, t])
//!     ⊕ (1-g) ⊗ (1-r) ⊗ tanh(W_u [x, z, t])
//! ```
//!
//! All five weight matrices map `(x_dim + 2·hidden) → hidden`; nodes with
//! fewer than two neighbour types feed `0` into the unused port, exactly
//! as the paper prescribes.

use fd_autograd::Var;
use fd_nn::{Binding, ParamId, Params};
use fd_tensor::{stable_sigmoid, xavier_uniform, Matrix};
use rand::Rng;

/// One GDU parameter set (shared across diffusion rounds for one node
/// type).
#[derive(Debug, Clone, Copy)]
pub struct GduCell {
    wf: ParamId,
    we: ParamId,
    wg: ParamId,
    wr: ParamId,
    wu: ParamId,
    x_dim: usize,
    hidden: usize,
}

impl GduCell {
    /// Allocates the five gate matrices under `{name}.*`.
    pub fn new(
        params: &mut Params,
        name: &str,
        x_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let in_dim = x_dim + 2 * hidden;
        let wf = params.get_or_insert(&format!("{name}.wf"), || xavier_uniform(in_dim, hidden, rng));
        let we = params.get_or_insert(&format!("{name}.we"), || xavier_uniform(in_dim, hidden, rng));
        let wg = params.get_or_insert(&format!("{name}.wg"), || xavier_uniform(in_dim, hidden, rng));
        let wr = params.get_or_insert(&format!("{name}.wr"), || xavier_uniform(in_dim, hidden, rng));
        let wu = params.get_or_insert(&format!("{name}.wu"), || xavier_uniform(in_dim, hidden, rng));
        Self { wf, we, wg, wr, wu, x_dim, hidden }
    }

    /// One GDU evaluation over `n` nodes at once (`n = 1` is the
    /// per-node case). `x` is `n x x_dim`; `z` and `t_in` are
    /// `n x hidden` neighbour states (pass a zero leaf for an unused
    /// port). `use_gates = false` is the no-gates ablation: forget and
    /// adjust become identity. Row `i` of the result is bit-identical to
    /// evaluating row `i` alone — every op here is row-independent.
    pub fn forward(&self, bind: &Binding, x: Var, z: Var, t_in: Var, use_gates: bool) -> Var {
        let t = bind.tape();
        debug_assert_eq!(t.shape(x).1, self.x_dim, "GDU x width mismatch");
        debug_assert_eq!(t.shape(z), (t.shape(x).0, self.hidden), "GDU z shape mismatch");
        debug_assert_eq!(t.shape(t_in), (t.shape(x).0, self.hidden), "GDU t shape mismatch");
        let xzt = t.concat3(x, z, t_in);

        let (z_tilde, t_tilde) = if use_gates {
            let f = t.sigmoid(t.matmul(xzt, bind.var(self.wf)));
            let e = t.sigmoid(t.matmul(xzt, bind.var(self.we)));
            (t.mul(f, z), t.mul(e, t_in))
        } else {
            (z, t_in)
        };

        let g = t.sigmoid(t.matmul(xzt, bind.var(self.wg)));
        let r = t.sigmoid(t.matmul(xzt, bind.var(self.wr)));
        let og = t.one_minus(g);
        let or = t.one_minus(r);

        let branch = |zz: Var, tt: Var| -> Var {
            let cat = t.concat3(x, zz, tt);
            t.tanh(t.matmul(cat, bind.var(self.wu)))
        };
        let b1 = branch(z_tilde, t_tilde);
        let b2 = branch(z, t_tilde);
        let b3 = branch(z_tilde, t_in);
        let b4 = branch(z, t_in);

        let p1 = t.mul(t.mul(g, r), b1);
        let p2 = t.mul(t.mul(og, r), b2);
        let p3 = t.mul(t.mul(g, or), b3);
        let p4 = t.mul(t.mul(og, or), b4);
        t.sum_n(&[p1, p2, p3, p4])
    }

    /// Tape-free batched twin of [`GduCell::forward`]: evaluates the GDU
    /// for `n` nodes at once. `x` is `n x x_dim`; `z` and `t_in` are
    /// `n x hidden`. Row `i` of the result is bit-identical to running
    /// row `i` through the tape path on its own — the blocked matmul
    /// reduces each output element in the same fixed order regardless of
    /// batch size, and every other op here is elementwise.
    pub fn forward_matrix(
        &self,
        params: &Params,
        x: &Matrix,
        z: &Matrix,
        t_in: &Matrix,
        use_gates: bool,
    ) -> Matrix {
        debug_assert_eq!(x.cols(), self.x_dim, "GDU x width mismatch");
        debug_assert_eq!(z.cols(), self.hidden, "GDU z width mismatch");
        debug_assert_eq!(t_in.cols(), self.hidden, "GDU t width mismatch");
        let xzt = x.concat_cols(z).concat_cols(t_in);
        let gate = |w: ParamId| xzt.matmul(params.value(w)).map(stable_sigmoid);

        let (z_tilde, t_tilde) = if use_gates {
            (gate(self.wf).mul(z), gate(self.we).mul(t_in))
        } else {
            (z.clone(), t_in.clone())
        };

        let g = gate(self.wg);
        let r = gate(self.wr);
        let og = g.map(|v| 1.0 - v);
        let or = r.map(|v| 1.0 - v);

        let branch = |zz: &Matrix, tt: &Matrix| -> Matrix {
            x.concat_cols(zz).concat_cols(tt).matmul(params.value(self.wu)).map(f32::tanh)
        };
        let b1 = branch(&z_tilde, &t_tilde);
        let b2 = branch(z, &t_tilde);
        let b3 = branch(&z_tilde, t_in);
        let b4 = branch(z, t_in);

        // Same association as the tape path: (g*r)*b, then a left-to-right
        // sum — `sum_n` adds terms in list order.
        let p1 = g.mul(&r).mul(&b1);
        let p2 = og.mul(&r).mul(&b2);
        let p3 = g.mul(&or).mul(&b3);
        let p4 = og.mul(&or).mul(&b4);
        p1.add(&p2).add(&p3).add(&p4)
    }

    /// GDU state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Expected `x` width.
    pub fn x_dim(&self) -> usize {
        self.x_dim
    }

    /// The five parameter handles (for the regulariser).
    pub fn param_ids(&self) -> Vec<ParamId> {
        vec![self.wf, self.we, self.wg, self.wr, self.wu]
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_autograd::{grad_check, Tape};
    use fd_tensor::Matrix;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup(x_dim: usize, hidden: usize) -> (Params, GduCell) {
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(5);
        let cell = GduCell::new(&mut params, "gdu", x_dim, hidden, &mut rng);
        (params, cell)
    }

    #[test]
    fn output_shape_and_bounds() {
        let (params, cell) = setup(6, 4);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &params);
        let x = tape.leaf(Matrix::filled(1, 6, 0.3));
        let z = tape.leaf(Matrix::filled(1, 4, -0.2));
        let ti = tape.leaf(Matrix::filled(1, 4, 0.1));
        let h = cell.forward(&bind, x, z, ti, true);
        assert_eq!(tape.shape(h), (1, 4));
        // Convex mix of tanh branches: |h| <= 1 everywhere.
        assert!(tape.value(h).max_abs() <= 1.0 + 1e-6);
    }

    #[test]
    fn gate_convexity_identity() {
        // The four gate products sum to 1 elementwise, so with all
        // branches equal the output equals that branch. Force equality by
        // zeroing z and t: then z̃ = z = 0, t̃ = t = 0 and all four
        // branches see the same input.
        let (params, cell) = setup(5, 3);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &params);
        let x = tape.leaf(Matrix::filled(1, 5, 0.7));
        let zero = tape.leaf(Matrix::zeros(1, 3));
        let h = cell.forward(&bind, x, zero, zero, true);
        // Compute the single branch by hand.
        let xzt = tape.concat3(x, zero, zero);
        let branch = tape.tanh(tape.matmul(xzt, bind.var(cell.wu)));
        fd_tensor::assert_close(&tape.value(h), &tape.value(branch), 1e-5);
    }

    #[test]
    fn gates_change_output_when_inputs_nonzero() {
        let (params, cell) = setup(5, 3);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &params);
        let x = tape.leaf(Matrix::filled(1, 5, 0.4));
        let z = tape.leaf(Matrix::filled(1, 3, 0.9));
        let ti = tape.leaf(Matrix::filled(1, 3, -0.8));
        let gated = cell.forward(&bind, x, z, ti, true);
        let ungated = cell.forward(&bind, x, z, ti, false);
        assert_ne!(tape.value(gated), tape.value(ungated));
    }

    #[test]
    fn full_cell_gradchecks_through_params() {
        // Check gradients w.r.t. the inputs *and* all five weights by
        // rebuilding the cell inside the closure over leaf matrices.
        let mut rng = StdRng::seed_from_u64(9);
        let (x_dim, h) = (3, 3);
        let in_dim = x_dim + 2 * h;
        let inputs = vec![
            fd_tensor::uniform_in(1, x_dim, -1.0, 1.0, &mut rng),
            fd_tensor::uniform_in(1, h, -1.0, 1.0, &mut rng),
            fd_tensor::uniform_in(1, h, -1.0, 1.0, &mut rng),
            fd_tensor::uniform_in(in_dim, h, -0.7, 0.7, &mut rng),
            fd_tensor::uniform_in(in_dim, h, -0.7, 0.7, &mut rng),
            fd_tensor::uniform_in(in_dim, h, -0.7, 0.7, &mut rng),
            fd_tensor::uniform_in(in_dim, h, -0.7, 0.7, &mut rng),
            fd_tensor::uniform_in(in_dim, h, -0.7, 0.7, &mut rng),
        ];
        let report = grad_check(
            &inputs,
            |t, v| {
                // Inline GDU over leaves (mirrors GduCell::forward).
                let (x, z, ti) = (v[0], v[1], v[2]);
                let (wf, we, wg, wr, wu) = (v[3], v[4], v[5], v[6], v[7]);
                let xzt = t.concat3(x, z, ti);
                let f = t.sigmoid(t.matmul(xzt, wf));
                let e = t.sigmoid(t.matmul(xzt, we));
                let zt = t.mul(f, z);
                let tt = t.mul(e, ti);
                let g = t.sigmoid(t.matmul(xzt, wg));
                let r = t.sigmoid(t.matmul(xzt, wr));
                let og = t.one_minus(g);
                let or = t.one_minus(r);
                let branch = |zz, t2| {
                    let cat = t.concat3(x, zz, t2);
                    t.tanh(t.matmul(cat, wu))
                };
                let p1 = t.mul(t.mul(g, r), branch(zt, tt));
                let p2 = t.mul(t.mul(og, r), branch(z, tt));
                let p3 = t.mul(t.mul(g, or), branch(zt, ti));
                let p4 = t.mul(t.mul(og, or), branch(z, ti));
                let h_out = t.sum_n(&[p1, p2, p3, p4]);
                t.square_norm(h_out)
            },
            1e-2,
        );
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn five_parameters_allocated() {
        let (params, cell) = setup(4, 4);
        assert_eq!(params.len(), 5);
        assert_eq!(cell.param_ids().len(), 5);
        assert_eq!(cell.hidden(), 4);
        assert_eq!(cell.x_dim(), 4);
    }
}
