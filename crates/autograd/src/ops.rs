//! Forward definitions and adjoint (backward) rules for every primitive.

use crate::tape::{accumulate, Node, Op, RowAccum, Tape, Var};
use fd_tensor::{softmax_in_place, Matrix};
use std::rc::Rc;
use std::sync::Arc;

impl Tape {
    /// Matrix product `a · b`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            nodes[a.0 as usize].value.matmul(&nodes[b.0 as usize].value)
        };
        self.push(value, Op::MatMul(a, b))
    }

    /// Element-wise sum of two same-shaped values.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            nodes[a.0 as usize].value.add(&nodes[b.0 as usize].value)
        };
        self.push(value, Op::Add(a, b))
    }

    /// Adds a `1 x n` bias row to every row of `a`.
    pub fn add_row_broadcast(&self, a: Var, bias: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            nodes[a.0 as usize].value.add_row_broadcast(&nodes[bias.0 as usize].value)
        };
        self.push(value, Op::AddRowBroadcast(a, bias))
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            nodes[a.0 as usize].value.sub(&nodes[b.0 as usize].value)
        };
        self.push(value, Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            nodes[a.0 as usize].value.mul(&nodes[b.0 as usize].value)
        };
        self.push(value, Op::Mul(a, b))
    }

    /// `alpha * a`.
    pub fn scale(&self, a: Var, alpha: f32) -> Var {
        let value = self.nodes.borrow()[a.0 as usize].value.scale(alpha);
        self.push(value, Op::Scale(a, alpha))
    }

    /// `1 - a`, element-wise — the complement used by GDU's selection
    /// gates.
    pub fn one_minus(&self, a: Var) -> Var {
        let value = self.nodes.borrow()[a.0 as usize].value.map(|v| 1.0 - v);
        self.push(value, Op::OneMinus(a))
    }

    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    pub fn sigmoid(&self, a: Var) -> Var {
        let value = self.nodes.borrow()[a.0 as usize].value.map(stable_sigmoid);
        self.push(value, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        let value = self.nodes.borrow()[a.0 as usize].value.map(f32::tanh);
        self.push(value, Op::Tanh(a))
    }

    /// Column-wise concatenation `[a | b]`.
    pub fn concat_cols(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            nodes[a.0 as usize].value.concat_cols(&nodes[b.0 as usize].value)
        };
        self.push(value, Op::ConcatCols(a, b))
    }

    /// Concatenates three row-blocks of columns; convenience for the
    /// `[x⊤, z⊤, t⊤]⊤` stacking in the GDU equations.
    pub fn concat3(&self, a: Var, b: Var, c: Var) -> Var {
        let ab = self.concat_cols(a, b);
        self.concat_cols(ab, c)
    }

    /// Mean of N same-shaped values — the neighbour aggregator of the
    /// diffusion network.
    ///
    /// # Panics
    /// Panics on an empty input set or mismatched shapes.
    pub fn mean_n(&self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "mean_n: empty input set");
        let value = {
            let nodes = self.nodes.borrow();
            let mut acc = nodes[vars[0].0 as usize].value.clone();
            for v in &vars[1..] {
                acc.add_assign(&nodes[v.0 as usize].value);
            }
            acc.scale(1.0 / vars.len() as f32)
        };
        self.push(value, Op::MeanN(vars.to_vec()))
    }

    /// Sum of N same-shaped values (loss accumulation across entities).
    ///
    /// # Panics
    /// Panics on an empty input set or mismatched shapes.
    pub fn sum_n(&self, vars: &[Var]) -> Var {
        assert!(!vars.is_empty(), "sum_n: empty input set");
        let value = {
            let nodes = self.nodes.borrow();
            let mut acc = nodes[vars[0].0 as usize].value.clone();
            for v in &vars[1..] {
                acc.add_assign(&nodes[v.0 as usize].value);
            }
            acc
        };
        self.push(value, Op::SumN(vars.to_vec()))
    }

    /// Scalar cross-entropy `-log softmax(logits)[target]` for a `1 x k`
    /// logits row. The cached soft-max makes the backward pass a single
    /// subtraction.
    ///
    /// # Panics
    /// Panics when `logits` is not a row vector or `target` is out of
    /// range.
    pub fn softmax_cross_entropy(&self, logits: Var, target: usize) -> Var {
        let (probs, loss) = {
            let nodes = self.nodes.borrow();
            let l = &nodes[logits.0 as usize].value;
            assert!(
                l.is_row_vector(),
                "softmax_cross_entropy: logits must be 1 x k, got {}x{}",
                l.rows(),
                l.cols()
            );
            assert!(
                target < l.cols(),
                "softmax_cross_entropy: target {target} out of {} classes",
                l.cols()
            );
            let mut probs = l.clone();
            softmax_in_place(probs.row_mut(0));
            // Clamp avoids -inf loss when a class has underflowed to 0.
            let p = probs[(0, target)].max(1e-12);
            (probs, -p.ln())
        };
        self.push(
            Matrix::filled(1, 1, loss),
            Op::SoftmaxCrossEntropy { logits, target, probs },
        )
    }

    /// Scalar `Σ xᵢ²`, the L2 regularisation term. Reduced over the
    /// deterministic tree in `fd_tensor::parallel`, so the value is
    /// bit-identical at any `FD_THREADS`; both training paths call this
    /// same op for the regulariser, so their losses stay comparable
    /// bit-for-bit.
    pub fn square_norm(&self, a: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let x = &nodes[a.0 as usize].value;
            Matrix::filled(1, 1, fd_tensor::parallel::tree_sum_squares(x.as_slice()))
        };
        self.push(value, Op::SquareNorm(a))
    }

    /// Copies row `row` of `table` as a `1 x n` value (embedding lookup);
    /// the gradient scatters back into that row only.
    ///
    /// # Panics
    /// Panics when `row` is out of range.
    pub fn embed_row(&self, table: Var, row: usize) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            nodes[table.0 as usize].value.row_matrix(row)
        };
        self.push(value, Op::EmbedRow { table, row })
    }

    /// Batched row gather: row `i` of the result is row `rows[i]` of
    /// `src`, or a zero row for `None` (an absent neighbour/port). The
    /// gradient scatter-adds each output row back into its source row,
    /// with repeats accumulating — the matrix form of [`Tape::embed_row`].
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn gather_rows(&self, src: Var, rows: &[Option<usize>]) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            fd_tensor::gather_rows(&nodes[src.0 as usize].value, rows)
        };
        self.push(value, Op::GatherRows { src, rows: Rc::new(rows.to_vec()) })
    }

    /// Batched neighbour mean: row `i` of the result averages the
    /// `lists[i]` rows of `src`; empty lists yield zero rows. Replays
    /// [`Tape::mean_n`]'s arithmetic bitwise per row (copy the first
    /// member, `+=` the rest in order, scale by `1/len`), and the
    /// backward distributes `g_i / len` to every listed row — the
    /// diffusion aggregator over graph adjacency in one op.
    ///
    /// # Panics
    /// Panics when a listed index is out of range.
    pub fn mean_rows(&self, src: Var, lists: Arc<Vec<Vec<usize>>>) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            // Borrow the slice so the row kernel may fan rows across
            // threads.
            let l: &[Vec<usize>] = &lists;
            fd_tensor::mean_rows(&nodes[src.0 as usize].value, l.len(), |i| l[i].as_slice())
        };
        self.push(value, Op::MeanRows { src, lists })
    }

    /// Vertical stack `[a; b]`; the gradient splits back by row count.
    ///
    /// # Panics
    /// Panics when the column counts differ.
    pub fn concat_rows(&self, a: Var, b: Var) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            nodes[a.0 as usize].value.concat_rows(&nodes[b.0 as usize].value)
        };
        self.push(value, Op::ConcatRows(a, b))
    }

    /// Per-row selection between two same-shaped values: row `i` of the
    /// result is `a`'s row where `take_a[i]`, else `b`'s (exact copies).
    /// Gradients route row-by-row to whichever parent supplied the row —
    /// how the batched GRU freezes finished sequences.
    ///
    /// # Panics
    /// Panics on shape mismatch or a wrong mask length.
    pub fn mask_rows(&self, a: Var, b: Var, take_a: &[bool]) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let (av, bv) = (&nodes[a.0 as usize].value, &nodes[b.0 as usize].value);
            assert_eq!(av.shape(), bv.shape(), "mask_rows: shape mismatch");
            assert_eq!(take_a.len(), av.rows(), "mask_rows: mask length mismatch");
            let mut out = bv.clone();
            for (i, &take) in take_a.iter().enumerate() {
                if take {
                    out.row_mut(i).copy_from_slice(av.row(i));
                }
            }
            out
        };
        self.push(value, Op::MaskRows { a, b, take_a: Rc::new(take_a.to_vec()) })
    }

    /// Per-row pooled-sum accumulation: row `i` of the result is the
    /// `sum` row ([`RowAccum::Skip`]), a copy of the `h` row
    /// ([`RowAccum::Start`]), or `sum + h` ([`RowAccum::Add`]). This is
    /// the batched form of the per-node GRU pooling `sum = sum + h`,
    /// including its "first step copies `h`" initialisation.
    ///
    /// # Panics
    /// Panics on shape mismatch or a wrong phase length.
    pub fn accum_rows(&self, sum: Var, h: Var, phase: &[RowAccum]) -> Var {
        let value = {
            let nodes = self.nodes.borrow();
            let (sv, hv) = (&nodes[sum.0 as usize].value, &nodes[h.0 as usize].value);
            assert_eq!(sv.shape(), hv.shape(), "accum_rows: shape mismatch");
            assert_eq!(phase.len(), sv.rows(), "accum_rows: phase length mismatch");
            let mut out = sv.clone();
            for (i, &ph) in phase.iter().enumerate() {
                match ph {
                    RowAccum::Skip => {}
                    RowAccum::Start => out.row_mut(i).copy_from_slice(hv.row(i)),
                    RowAccum::Add => {
                        for (acc, &v) in out.row_mut(i).iter_mut().zip(hv.row(i)) {
                            *acc += v;
                        }
                    }
                }
            }
            out
        };
        self.push(value, Op::AccumRows { sum, h, phase: Rc::new(phase.to_vec()) })
    }

    /// Batched cross-entropy: the scalar sum over rows of
    /// `-log softmax(logits_i)[targets[i]]`, accumulated in row order
    /// (bit-comparable to summing per-row [`Tape::softmax_cross_entropy`]
    /// terms left to right). The cached row-wise soft-max makes the
    /// backward one subtraction per row.
    ///
    /// # Panics
    /// Panics on empty logits, a wrong target length, or an
    /// out-of-range class.
    pub fn softmax_cross_entropy_rows(&self, logits: Var, targets: &[usize]) -> Var {
        let (probs, loss) = {
            let nodes = self.nodes.borrow();
            let l = &nodes[logits.0 as usize].value;
            assert!(l.rows() > 0, "softmax_cross_entropy_rows: empty logits");
            assert_eq!(
                targets.len(),
                l.rows(),
                "softmax_cross_entropy_rows: target count mismatch"
            );
            let mut probs = l.clone();
            let mut loss = 0.0f32;
            for (i, &target) in targets.iter().enumerate() {
                assert!(
                    target < l.cols(),
                    "softmax_cross_entropy_rows: target {target} out of {} classes",
                    l.cols()
                );
                softmax_in_place(probs.row_mut(i));
                // Clamp avoids -inf loss when a class has underflowed to
                // 0; the running sum starts *at* the first term so even
                // sign-of-zero matches the per-node `sum_n`.
                let term = -probs.row(i)[target].max(1e-12).ln();
                if i == 0 {
                    loss = term;
                } else {
                    loss += term;
                }
            }
            (probs, loss)
        };
        self.push(
            Matrix::filled(1, 1, loss),
            Op::SoftmaxCrossEntropyRows { logits, targets: Rc::new(targets.to_vec()), probs },
        )
    }
}

// The sigmoid definition is shared with the tape-free batched inference
// path so both produce identical bits.
pub(crate) use fd_tensor::stable_sigmoid;

/// Applies the adjoint rule of `op` for node `i`, whose output gradient is
/// `g`, accumulating into its parents.
pub(crate) fn propagate(nodes: &mut [Node], i: usize, g: &Matrix, op: &Op) {
    match op {
        Op::Leaf => {}
        Op::MatMul(a, b) => {
            // d/dA (A·B) = G·Bᵀ ; d/dB = Aᵀ·G
            let da = g.matmul_transpose(&nodes[b.0 as usize].value);
            let db = nodes[a.0 as usize].value.transpose_matmul(g);
            accumulate(nodes, *a, &da);
            accumulate(nodes, *b, &db);
        }
        Op::Add(a, b) => {
            accumulate(nodes, *a, g);
            accumulate(nodes, *b, g);
        }
        Op::AddRowBroadcast(a, bias) => {
            accumulate(nodes, *a, g);
            let db = g.col_sums();
            accumulate(nodes, *bias, &db);
        }
        Op::Sub(a, b) => {
            accumulate(nodes, *a, g);
            let db = g.scale(-1.0);
            accumulate(nodes, *b, &db);
        }
        Op::Mul(a, b) => {
            let da = g.mul(&nodes[b.0 as usize].value);
            let db = g.mul(&nodes[a.0 as usize].value);
            accumulate(nodes, *a, &da);
            accumulate(nodes, *b, &db);
        }
        Op::Scale(a, alpha) => {
            let da = g.scale(*alpha);
            accumulate(nodes, *a, &da);
        }
        Op::OneMinus(a) => {
            let da = g.scale(-1.0);
            accumulate(nodes, *a, &da);
        }
        Op::Sigmoid(a) => {
            // y' = y(1-y), in terms of the stored output.
            let y = &nodes[i].value;
            let da = g.zip_map(y, |gv, yv| gv * yv * (1.0 - yv));
            accumulate(nodes, *a, &da);
        }
        Op::Tanh(a) => {
            let y = &nodes[i].value;
            let da = g.zip_map(y, |gv, yv| gv * (1.0 - yv * yv));
            accumulate(nodes, *a, &da);
        }
        Op::ConcatCols(a, b) => {
            let a_cols = nodes[a.0 as usize].value.cols();
            let b_cols = nodes[b.0 as usize].value.cols();
            let da = g.slice_cols(0, a_cols);
            let db = g.slice_cols(a_cols, b_cols);
            accumulate(nodes, *a, &da);
            accumulate(nodes, *b, &db);
        }
        Op::MeanN(vars) => {
            let share = g.scale(1.0 / vars.len() as f32);
            for v in vars {
                accumulate(nodes, *v, &share);
            }
        }
        Op::SumN(vars) => {
            for v in vars {
                accumulate(nodes, *v, g);
            }
        }
        Op::SoftmaxCrossEntropy { logits, target, probs } => {
            // dL/dlogits = softmax(logits) - onehot(target), scaled by the
            // incoming scalar gradient.
            let scale = g[(0, 0)];
            let mut dl = probs.clone();
            dl[(0, *target)] -= 1.0;
            let dl = dl.scale(scale);
            accumulate(nodes, *logits, &dl);
        }
        Op::SquareNorm(a) => {
            let scale = 2.0 * g[(0, 0)];
            let da = nodes[a.0 as usize].value.scale(scale);
            accumulate(nodes, *a, &da);
        }
        Op::EmbedRow { table, row } => {
            debug_assert!(g.is_row_vector());
            let cols = nodes[table.0 as usize].value.cols();
            let rows = nodes[table.0 as usize].value.rows();
            let slot = &mut nodes[table.0 as usize].grad;
            if slot.is_none() {
                *slot = Some(Matrix::zeros(rows, cols));
            }
            let gt = slot.as_mut().expect("just initialised");
            for (acc, &v) in gt.row_mut(*row).iter_mut().zip(g.row(0)) {
                *acc += v;
            }
        }
        Op::GatherRows { src, rows } => {
            // Scatter-add each output-row gradient into its source row;
            // `None` rows took a constant zero and contribute nothing.
            let (r, c) = nodes[src.0 as usize].value.shape();
            let slot = &mut nodes[src.0 as usize].grad;
            if slot.is_none() {
                *slot = Some(Matrix::zeros(r, c));
            }
            fd_tensor::scatter_add_rows(slot.as_mut().expect("just initialised"), rows, g);
        }
        Op::MeanRows { src, lists } => {
            // d mean/d member = 1/len, so row i hands g_i/len to every
            // listed source row (the scatter form of MeanN's backward).
            let (r, c) = nodes[src.0 as usize].value.shape();
            let slot = &mut nodes[src.0 as usize].grad;
            if slot.is_none() {
                *slot = Some(Matrix::zeros(r, c));
            }
            let l: &[Vec<usize>] = lists;
            fd_tensor::scatter_add_mean_rows(
                slot.as_mut().expect("just initialised"),
                g,
                |i| l[i].as_slice(),
            );
        }
        Op::ConcatRows(a, b) => {
            let a_rows = nodes[a.0 as usize].value.rows();
            let b_rows = nodes[b.0 as usize].value.rows();
            let da = g.slice_rows(0, a_rows);
            let db = g.slice_rows(a_rows, b_rows);
            accumulate(nodes, *a, &da);
            accumulate(nodes, *b, &db);
        }
        Op::MaskRows { a, b, take_a } => {
            // Each gradient row flows to whichever parent supplied the
            // value row; the other parent sees zero there.
            let mut da = Matrix::zeros(g.rows(), g.cols());
            let mut db = Matrix::zeros(g.rows(), g.cols());
            for (i, &take) in take_a.iter().enumerate() {
                let dst = if take { &mut da } else { &mut db };
                dst.row_mut(i).copy_from_slice(g.row(i));
            }
            accumulate(nodes, *a, &da);
            accumulate(nodes, *b, &db);
        }
        Op::AccumRows { sum, h, phase } => {
            // Skip: out = sum        → dsum += g
            // Start: out = h         → dh += g
            // Add:  out = sum + h    → both += g
            let mut dsum = Matrix::zeros(g.rows(), g.cols());
            let mut dh = Matrix::zeros(g.rows(), g.cols());
            for (i, &ph) in phase.iter().enumerate() {
                if ph != RowAccum::Start {
                    dsum.row_mut(i).copy_from_slice(g.row(i));
                }
                if ph != RowAccum::Skip {
                    dh.row_mut(i).copy_from_slice(g.row(i));
                }
            }
            accumulate(nodes, *sum, &dsum);
            accumulate(nodes, *h, &dh);
        }
        Op::SoftmaxCrossEntropyRows { logits, targets, probs } => {
            // Per row: dL/dlogits_i = softmax(logits_i) - onehot(t_i),
            // scaled by the incoming scalar gradient — the batched form
            // of the per-node rule.
            let scale = g[(0, 0)];
            let mut dl = probs.clone();
            for (i, &target) in targets.iter().enumerate() {
                dl.row_mut(i)[target] -= 1.0;
            }
            let dl = dl.scale(scale);
            accumulate(nodes, *logits, &dl);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Tape;
    use fd_tensor::{assert_close, Matrix};

    #[test]
    fn stable_sigmoid_extremes() {
        assert!(super::stable_sigmoid(100.0) > 0.999_999);
        assert!(super::stable_sigmoid(-100.0) < 1e-6);
        assert!((super::stable_sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn matmul_gradients_match_known_formula() {
        // loss = sum((x·W)²) for 1x2 · 2x2; verified against hand algebra.
        let t = Tape::new();
        let x = t.leaf(Matrix::row_vector(&[1.0, -2.0]));
        let w = t.leaf(Matrix::from_rows(&[&[0.5, 1.0], &[2.0, -1.0]]));
        let y = t.matmul(x, w); // [-3.5, 3.0]
        let loss = t.square_norm(y);
        t.backward(loss);
        assert_close(&t.value(y), &Matrix::row_vector(&[-3.5, 3.0]), 1e-6);
        // dL/dy = 2y; dL/dx = 2y·Wᵀ; dL/dW = xᵀ·2y
        let dx = t.grad(x).unwrap();
        assert_close(&dx, &Matrix::row_vector(&[-7.0 * 0.5 + 6.0 * 1.0, -7.0 * 2.0 - 6.0]), 1e-5);
        let dw = t.grad(w).unwrap();
        assert_close(
            &dw,
            &Matrix::from_rows(&[&[-7.0, 6.0], &[14.0, -12.0]]),
            1e-5,
        );
    }

    #[test]
    fn add_and_sub_route_gradients() {
        let t = Tape::new();
        let a = t.leaf(Matrix::row_vector(&[1.0]));
        let b = t.leaf(Matrix::row_vector(&[2.0]));
        let s = t.sub(a, b); // -1
        let sum = t.add(s, a); // 0
        let loss = t.square_norm(sum); // (2a - b)² = 0
        t.backward(loss);
        // d/da (2a-b)² = 2(2a-b)*2 = 0 at a=1,b=2; but gradients still flow.
        assert_eq!(t.grad(a).unwrap().shape(), (1, 1));
        assert_eq!(t.grad(b).unwrap().shape(), (1, 1));
    }

    #[test]
    fn softmax_cross_entropy_gradient_is_probs_minus_onehot() {
        let t = Tape::new();
        let logits = t.leaf(Matrix::row_vector(&[1.0, 2.0, 0.5]));
        let loss = t.softmax_cross_entropy(logits, 1);
        t.backward(loss);
        let g = t.grad(logits).unwrap();
        let p = fd_tensor::softmax_rows(&t.value(logits));
        let mut expected = p;
        expected[(0, 1)] -= 1.0;
        assert_close(&g, &expected, 1e-6);
        // Loss value is -log p₁.
        let p1 = fd_tensor::softmax_rows(&t.value(logits))[(0, 1)];
        assert!((t.value(loss)[(0, 0)] + p1.ln()).abs() < 1e-6);
    }

    #[test]
    fn mean_n_splits_gradient_evenly() {
        let t = Tape::new();
        let a = t.leaf(Matrix::row_vector(&[1.0, 0.0]));
        let b = t.leaf(Matrix::row_vector(&[3.0, 0.0]));
        let c = t.leaf(Matrix::row_vector(&[5.0, 0.0]));
        let m = t.mean_n(&[a, b, c]);
        assert_close(&t.value(m), &Matrix::row_vector(&[3.0, 0.0]), 1e-6);
        let loss = t.square_norm(m);
        t.backward(loss);
        // dL/da = 2·m/3 = [2, 0]
        assert_close(&t.grad(a).unwrap(), &Matrix::row_vector(&[2.0, 0.0]), 1e-5);
        assert_close(&t.grad(b).unwrap(), &t.grad(c).unwrap(), 1e-6);
    }

    #[test]
    fn concat_splits_gradient_by_width() {
        let t = Tape::new();
        let a = t.leaf(Matrix::row_vector(&[1.0]));
        let b = t.leaf(Matrix::row_vector(&[2.0, 3.0]));
        let cat = t.concat_cols(a, b);
        assert_eq!(t.shape(cat), (1, 3));
        let loss = t.square_norm(cat);
        t.backward(loss);
        assert_close(&t.grad(a).unwrap(), &Matrix::row_vector(&[2.0]), 1e-6);
        assert_close(&t.grad(b).unwrap(), &Matrix::row_vector(&[4.0, 6.0]), 1e-6);
    }

    #[test]
    fn embed_row_scatters_into_single_row() {
        let t = Tape::new();
        let table = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let e = t.embed_row(table, 1);
        assert_close(&t.value(e), &Matrix::row_vector(&[3.0, 4.0]), 1e-6);
        let loss = t.square_norm(e);
        t.backward(loss);
        let g = t.grad(table).unwrap();
        assert_close(
            &g,
            &Matrix::from_rows(&[&[0.0, 0.0], &[6.0, 8.0], &[0.0, 0.0]]),
            1e-6,
        );
    }

    #[test]
    fn embed_row_accumulates_on_repeated_lookup() {
        let t = Tape::new();
        let table = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0]]));
        let e1 = t.embed_row(table, 0);
        let e2 = t.embed_row(table, 0);
        let s = t.add(e1, e2);
        let loss = t.square_norm(s);
        t.backward(loss);
        // loss = (2x)², dL/dx = 8x = 8.
        assert_close(&t.grad(table).unwrap(), &Matrix::from_rows(&[&[8.0], &[0.0]]), 1e-5);
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // loss = (x + x)² must see dL/dx = 8x.
        let t = Tape::new();
        let x = t.leaf(Matrix::row_vector(&[3.0]));
        let s = t.add(x, x);
        let loss = t.square_norm(s);
        t.backward(loss);
        assert_close(&t.grad(x).unwrap(), &Matrix::row_vector(&[24.0]), 1e-5);
    }

    #[test]
    fn activations_forward_values() {
        let t = Tape::new();
        let x = t.leaf(Matrix::row_vector(&[-1.0, 0.0, 2.0]));
        let s = t.value(t.sigmoid(x));
        assert!((s[(0, 1)] - 0.5).abs() < 1e-6);
        let th = t.value(t.tanh(x));
        assert!((th[(0, 2)] - 2.0f32.tanh()).abs() < 1e-6);
        let om = t.value(t.one_minus(x));
        assert_close(&om, &Matrix::row_vector(&[2.0, 1.0, -1.0]), 1e-6);
    }

    #[test]
    fn gather_rows_forward_and_scatter_backward() {
        let t = Tape::new();
        let src = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        // Row 1 twice, one absent row: grads must accumulate on row 1
        // and the absent row must stay a constant zero.
        let g = t.gather_rows(src, &[Some(1), None, Some(1)]);
        assert_close(
            &t.value(g),
            &Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0], &[3.0, 4.0]]),
            1e-6,
        );
        let loss = t.square_norm(g);
        t.backward(loss);
        // d/dsrc row1 = 2·(3,4) + 2·(3,4) = (12, 16).
        assert_close(
            &t.grad(src).unwrap(),
            &Matrix::from_rows(&[&[0.0, 0.0], &[12.0, 16.0]]),
            1e-5,
        );
    }

    #[test]
    fn gather_rows_matches_embed_row_per_node() {
        let t = Tape::new();
        let table = t.leaf(Matrix::from_rows(&[&[1.5, -2.0], &[0.25, 4.0]]));
        let batched = t.gather_rows(table, &[Some(1), Some(0)]);
        for (i, row) in [1usize, 0].into_iter().enumerate() {
            let single = t.embed_row(table, row);
            assert_eq!(t.value(single).row(0), t.with_value(batched, |m| m.row(i).to_vec()));
        }
    }

    #[test]
    fn mean_rows_matches_mean_n_bitwise_and_handles_empties() {
        let t = Tape::new();
        let src = t.leaf(Matrix::from_rows(&[&[0.1, 0.7], &[-0.3, 0.2], &[0.9, -0.5]]));
        let lists = std::sync::Arc::new(vec![vec![0usize, 2, 1], vec![], vec![2]]);
        let m = t.mean_rows(src, lists);
        // Per-node reference: mean_n over embed_row views of the same rows.
        let rows: Vec<_> = (0..3).map(|r| t.embed_row(src, r)).collect();
        let m0 = t.mean_n(&[rows[0], rows[2], rows[1]]);
        let m2 = t.mean_n(&[rows[2]]);
        t.with_value(m, |batched| {
            t.with_value(m0, |r0| assert_eq!(r0.row(0), batched.row(0)));
            assert!(batched.row(1).iter().all(|&v| v == 0.0), "empty list must be zero");
            t.with_value(m2, |r2| assert_eq!(r2.row(0), batched.row(2)));
        });
    }

    #[test]
    fn mean_rows_backward_distributes_share() {
        let t = Tape::new();
        let src = t.leaf(Matrix::from_rows(&[&[2.0], &[4.0]]));
        let lists = std::sync::Arc::new(vec![vec![0usize, 1]]);
        let m = t.mean_rows(src, lists); // [3.0]
        let loss = t.square_norm(m); // 9
        t.backward(loss);
        // dL/dm = 6; each member gets 6/2 = 3.
        assert_close(&t.grad(src).unwrap(), &Matrix::from_rows(&[&[3.0], &[3.0]]), 1e-5);
    }

    #[test]
    fn concat_rows_splits_gradient_by_rows() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let cat = t.concat_rows(a, b);
        assert_eq!(t.shape(cat), (3, 2));
        let loss = t.square_norm(cat);
        t.backward(loss);
        assert_close(&t.grad(a).unwrap(), &Matrix::from_rows(&[&[2.0, 4.0]]), 1e-6);
        assert_close(
            &t.grad(b).unwrap(),
            &Matrix::from_rows(&[&[6.0, 8.0], &[10.0, 12.0]]),
            1e-6,
        );
    }

    #[test]
    fn mask_rows_routes_gradients_to_the_chosen_parent() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[3.0], &[4.0]]));
        let m = t.mask_rows(a, b, &[true, false]);
        assert_close(&t.value(m), &Matrix::from_rows(&[&[1.0], &[4.0]]), 1e-6);
        let loss = t.square_norm(m);
        t.backward(loss);
        assert_close(&t.grad(a).unwrap(), &Matrix::from_rows(&[&[2.0], &[0.0]]), 1e-6);
        assert_close(&t.grad(b).unwrap(), &Matrix::from_rows(&[&[0.0], &[8.0]]), 1e-6);
    }

    #[test]
    fn accum_rows_phases_forward_and_backward() {
        use crate::RowAccum::{Add, Skip, Start};
        let t = Tape::new();
        let sum = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let h = t.leaf(Matrix::from_rows(&[&[10.0], &[20.0], &[30.0]]));
        let out = t.accum_rows(sum, h, &[Skip, Start, Add]);
        assert_close(&t.value(out), &Matrix::from_rows(&[&[1.0], &[20.0], &[33.0]]), 1e-6);
        let loss = t.square_norm(out);
        t.backward(loss);
        // dL/dout = 2·out = (2, 40, 66).
        assert_close(
            &t.grad(sum).unwrap(),
            &Matrix::from_rows(&[&[2.0], &[0.0], &[66.0]]),
            1e-4,
        );
        assert_close(
            &t.grad(h).unwrap(),
            &Matrix::from_rows(&[&[0.0], &[40.0], &[66.0]]),
            1e-4,
        );
    }

    #[test]
    fn softmax_cross_entropy_rows_matches_per_row_sum_bitwise() {
        let t = Tape::new();
        let logits =
            t.leaf(Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[-1.0, 0.0, 3.0], &[0.2, 0.1, -0.4]]));
        let targets = [1usize, 2, 0];
        let batched = t.softmax_cross_entropy_rows(logits, &targets);
        // Per-node reference: one CE per row, summed left to right.
        let per_row: Vec<_> = targets
            .iter()
            .enumerate()
            .map(|(i, &target)| {
                let row = t.embed_row(logits, i);
                t.softmax_cross_entropy(row, target)
            })
            .collect();
        let reference = t.sum_n(&per_row);
        assert_eq!(
            t.value(batched)[(0, 0)].to_bits(),
            t.value(reference)[(0, 0)].to_bits(),
            "batched CE must be bit-comparable to the per-row sum"
        );
    }

    #[test]
    fn softmax_cross_entropy_rows_gradient_is_probs_minus_onehot_per_row() {
        let t = Tape::new();
        let logits = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[0.5, -0.5]]));
        let targets = [0usize, 1];
        let loss = t.softmax_cross_entropy_rows(logits, &targets);
        t.backward(loss);
        let g = t.grad(logits).unwrap();
        let mut expected = fd_tensor::softmax_rows(&t.value(logits));
        expected[(0, 0)] -= 1.0;
        expected[(1, 1)] -= 1.0;
        assert_close(&g, &expected, 1e-6);
    }

    #[test]
    fn batched_ops_pass_grad_check() {
        use crate::grad_check;
        // A small graph exercising gather → mean → mask/accum → concat →
        // batched CE end to end against finite differences.
        let src = Matrix::from_rows(&[&[0.3, -0.2], &[0.8, 0.4], &[-0.5, 0.1]]);
        let other = Matrix::from_rows(&[&[0.2, 0.9], &[-0.1, 0.3], &[0.6, -0.7]]);
        let report = grad_check(
            &[src, other],
            |t, v| {
                use crate::RowAccum::{Add, Start};
                let (s, o) = (v[0], v[1]);
                let gathered = t.gather_rows(s, &[Some(2), None, Some(0)]);
                let lists = std::sync::Arc::new(vec![vec![0usize, 1], vec![2], vec![]]);
                let mixed = t.mean_rows(o, lists);
                let masked = t.mask_rows(gathered, mixed, &[true, false, true]);
                let pooled = t.accum_rows(masked, o, &[Add, Start, Add]);
                let stacked = t.concat_rows(pooled, mixed);
                let targets = [0usize, 1, 0, 1, 0, 1];
                t.softmax_cross_entropy_rows(stacked, &targets)
            },
            1e-2,
        );
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn tape_reset_clears_nodes_and_allows_reuse() {
        let t = Tape::new();
        let x = t.leaf(Matrix::row_vector(&[2.0]));
        let loss = t.square_norm(x);
        t.backward(loss);
        assert_eq!(t.len(), 2);
        t.reset();
        assert!(t.is_empty());
        // Recording after a reset works and gradients start clean.
        let y = t.leaf(Matrix::row_vector(&[3.0]));
        let loss2 = t.square_norm(y);
        t.backward(loss2);
        assert_close(&t.grad(y).unwrap(), &Matrix::row_vector(&[6.0]), 1e-6);
    }

    #[test]
    fn scale_and_broadcast_backward() {
        let t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.leaf(Matrix::row_vector(&[0.5, -0.5]));
        let y = t.add_row_broadcast(x, b);
        let z = t.scale(y, 3.0);
        let loss = t.square_norm(z);
        t.backward(loss);
        // Bias gradient is the column sum of the upstream gradient.
        let gb = t.grad(b).unwrap();
        assert_eq!(gb.shape(), (1, 2));
        let gx = t.grad(x).unwrap();
        assert_eq!(gx.shape(), (2, 2));
        // dL/dz = 2z, dL/dy = 6z = 18(y), dL/db = colsum.
        let y_val = t.value(y);
        let expected_gb_0 = 18.0 * (y_val[(0, 0)] + y_val[(1, 0)]);
        assert!((gb[(0, 0)] - expected_gb_0).abs() < 1e-4);
    }
}
