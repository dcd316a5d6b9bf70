//! The tape: node storage, forward evaluation, and the backward pass.

use fd_tensor::Matrix;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A handle to a value recorded on a [`Tape`].
///
/// `Var`s are cheap copyable indices; they are only meaningful for the
/// tape that produced them. Mixing handles across tapes is a programmer
/// error caught by the shape asserts at best, so don't.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) u32);

/// Primitive operations the engine can differentiate.
///
/// Parent handles are stored inline; `SoftmaxCrossEntropy` additionally
/// caches the forward soft-max so the backward pass is a single subtract.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Input or parameter; no parents.
    Leaf,
    /// `a · b`.
    MatMul(Var, Var),
    /// `a + b`, same shape.
    Add(Var, Var),
    /// `a + bias` where `bias` is `1 x n` broadcast over rows.
    AddRowBroadcast(Var, Var),
    /// `a - b`, same shape.
    Sub(Var, Var),
    /// Element-wise `a ⊗ b`.
    Mul(Var, Var),
    /// `alpha * a`.
    Scale(Var, f32),
    /// `1 - a`, element-wise.
    OneMinus(Var),
    /// Logistic sigmoid.
    Sigmoid(Var),
    /// Hyperbolic tangent.
    Tanh(Var),
    /// `[a | b]` along columns.
    ConcatCols(Var, Var),
    /// Mean of N same-shaped values (the diffusion aggregator).
    MeanN(Vec<Var>),
    /// Sum of N same-shaped values (loss accumulation).
    SumN(Vec<Var>),
    /// Scalar `-log softmax(logits)[target]`; caches the soft-max row.
    SoftmaxCrossEntropy { logits: Var, target: usize, probs: Matrix },
    /// Scalar `Σ xᵢ²` (L2 regulariser).
    SquareNorm(Var),
    /// Copy of one row of the parent (embedding lookup).
    EmbedRow { table: Var, row: usize },
    /// Batched row gather: output row `i` is `src` row `rows[i]`, or a
    /// zero row for `None`. The matrix generalisation of `EmbedRow`;
    /// the backward direction is a scatter-add.
    GatherRows { src: Var, rows: Rc<Vec<Option<usize>>> },
    /// Batched neighbour mean: output row `i` averages the `lists[i]`
    /// rows of `src` (the diffusion aggregator over graph adjacency);
    /// empty lists yield zero rows.
    MeanRows { src: Var, lists: Arc<Vec<Vec<usize>>> },
    /// Vertical stack `[a; b]` (same column count).
    ConcatRows(Var, Var),
    /// Per-row selection between two same-shaped values: output row `i`
    /// is `a`'s row where `take_a[i]`, else `b`'s.
    MaskRows { a: Var, b: Var, take_a: Rc<Vec<bool>> },
    /// Per-row pooled-sum accumulation (batched GRU pooling): each row
    /// either keeps the running sum, starts it at `h`, or adds `h`.
    AccumRows { sum: Var, h: Var, phase: Rc<Vec<RowAccum>> },
    /// Scalar sum of per-row `-log softmax(logits_i)[targets[i]]`,
    /// accumulated in row order; caches the row-wise soft-max.
    SoftmaxCrossEntropyRows { logits: Var, targets: Rc<Vec<usize>>, probs: Matrix },
}

/// Per-row instruction for [`Tape::accum_rows`]: what the output row
/// does with the running `sum` row and the incoming `h` row.
///
/// `Start` exists because the per-node GRU pooling begins its running
/// sum *at* the first hidden state (a copy), not at `0 + h` — the two
/// differ bitwise when `h` carries a negative zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowAccum {
    /// Row is finished (or never started): keep the `sum` row.
    Skip,
    /// First real step for this row: the output row is a copy of `h`.
    Start,
    /// Subsequent step: the output row is `sum + h`.
    Add,
}

pub(crate) struct Node {
    pub value: Matrix,
    pub grad: Option<Matrix>,
    pub op: Op,
}

/// An append-only record of a computation, able to run reverse-mode
/// differentiation over it. See the crate docs for the usage model.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: RefCell<Vec<Node>>,
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-allocates node storage; purely a performance hint.
    pub fn with_capacity(nodes: usize) -> Self {
        Self { nodes: RefCell::new(Vec::with_capacity(nodes)) }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    pub(crate) fn push(&self, value: Matrix, op: Op) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        let idx = nodes.len();
        assert!(idx <= u32::MAX as usize, "tape overflow: more than u32::MAX nodes");
        nodes.push(Node { value, grad: None, op });
        Var(idx as u32)
    }

    /// Registers an input or parameter value; its gradient is available
    /// after [`Tape::backward`] via [`Tape::grad`].
    pub fn leaf(&self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Shape of a recorded value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes.borrow()[v.0 as usize].value.shape()
    }

    /// Clones the forward value of `v`.
    pub fn value(&self, v: Var) -> Matrix {
        self.nodes.borrow()[v.0 as usize].value.clone()
    }

    /// Runs `f` with a borrow of the forward value, avoiding a clone.
    pub fn with_value<R>(&self, v: Var, f: impl FnOnce(&Matrix) -> R) -> R {
        f(&self.nodes.borrow()[v.0 as usize].value)
    }

    /// Clones the gradient accumulated at `v`, or `None` if `v` did not
    /// participate in the differentiated sub-graph (or `backward` has not
    /// run yet).
    pub fn grad(&self, v: Var) -> Option<Matrix> {
        self.nodes.borrow()[v.0 as usize].grad.clone()
    }

    /// Reverse-mode differentiation from the scalar `loss`.
    ///
    /// Gradients accumulate (`+=`) into every node that `loss` depends on;
    /// calling `backward` twice on the same tape therefore doubles the
    /// gradients — build a fresh tape per step instead.
    ///
    /// # Panics
    /// Panics when `loss` is not `1 x 1`.
    pub fn backward(&self, loss: Var) {
        let mut nodes = self.nodes.borrow_mut();
        {
            let seed = &mut nodes[loss.0 as usize];
            assert_eq!(
                seed.value.shape(),
                (1, 1),
                "backward: loss must be a 1x1 scalar, got {}x{}",
                seed.value.rows(),
                seed.value.cols()
            );
            seed.grad = Some(Matrix::ones(1, 1));
        }
        for i in (0..=loss.0 as usize).rev() {
            // Take this node's pieces out so we can mutate parents.
            let Some(g) = nodes[i].grad.clone() else { continue };
            let op = nodes[i].op.clone();
            crate::ops::propagate(&mut nodes, i, &g, &op);
        }
    }

    /// Clears every recorded node while keeping the allocated arena, so
    /// a training loop can record each epoch into the same tape. After
    /// the first epoch the arena capacity settles at the previous
    /// epoch's node count — no reallocation, no fresh zeroing.
    ///
    /// All `Var` handles from before the reset are invalidated.
    pub fn reset(&self) {
        self.nodes.borrow_mut().clear();
    }
}

pub(crate) fn accumulate(nodes: &mut [Node], target: Var, delta: &Matrix) {
    let slot = &mut nodes[target.0 as usize].grad;
    match slot {
        Some(g) => g.add_assign(delta),
        None => *slot = Some(delta.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_roundtrips_value() {
        let t = Tape::new();
        let m = Matrix::from_rows(&[&[1.0, 2.0]]);
        let v = t.leaf(m.clone());
        assert_eq!(t.value(v), m);
        assert_eq!(t.shape(v), (1, 2));
        assert_eq!(t.len(), 1);
        assert!(t.grad(v).is_none());
    }

    #[test]
    fn with_value_borrows() {
        let t = Tape::new();
        let v = t.leaf(Matrix::ones(2, 2));
        let s = t.with_value(v, |m| m.sum());
        assert_eq!(s, 4.0);
    }

    #[test]
    #[should_panic(expected = "loss must be a 1x1 scalar")]
    fn backward_rejects_non_scalar() {
        let t = Tape::new();
        let v = t.leaf(Matrix::ones(1, 2));
        t.backward(v);
    }
}
