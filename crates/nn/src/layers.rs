//! Layers: affine, GRU cell, embedding table, and the pooled GRU text
//! encoder shared by the RNN baseline and HFLU.

use crate::{Binding, ParamId, Params};
use fd_autograd::{RowAccum, Var};
use fd_tensor::{xavier_uniform, Matrix};
use rand::Rng;

/// Affine layer `x · W + b`.
#[derive(Debug, Clone, Copy)]
pub struct Linear {
    /// Weight handle (`in_dim x out_dim`).
    pub w: ParamId,
    /// Bias handle (`1 x out_dim`).
    pub b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Allocates (or re-attaches to) the parameters `{name}.w` /
    /// `{name}.b`.
    pub fn new(params: &mut Params, name: &str, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let w = params.get_or_insert(&format!("{name}.w"), || xavier_uniform(in_dim, out_dim, rng));
        let b = params.get_or_insert(&format!("{name}.b"), || Matrix::zeros(1, out_dim));
        Self { w, b, in_dim, out_dim }
    }

    /// `x · W + b` for a batch of rows.
    pub fn forward(&self, bind: &Binding, x: Var) -> Var {
        let t = bind.tape();
        let xw = t.matmul(x, bind.var(self.w));
        t.add_row_broadcast(xw, bind.var(self.b))
    }

    /// Tape-free `x · W + b`: the batched-inference twin of
    /// [`Linear::forward`]. Row `i` of the result is bit-identical to
    /// running that row through the tape path on its own.
    pub fn forward_matrix(&self, params: &Params, x: &Matrix) -> Matrix {
        x.matmul(params.value(self.w)).add_row_broadcast(params.value(self.b))
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// This layer's parameter handles, for regularisation terms.
    pub fn param_ids(&self) -> Vec<ParamId> {
        vec![self.w, self.b]
    }
}

/// A gated recurrent unit cell (Cho et al. 2014) — the latent-feature
/// extractor of the paper's HFLU uses exactly this cell.
///
/// Update equations (row-vector convention):
/// ```text
/// z = σ(x·Wz + h·Uz + bz)        update gate
/// r = σ(x·Wr + h·Ur + br)        reset gate
/// n = tanh(x·Wn + (r ⊗ h)·Un + bn)
/// h' = z ⊗ n + (1 - z) ⊗ h
/// ```
#[derive(Debug, Clone)]
pub struct GruCell {
    wz: ParamId,
    uz: ParamId,
    bz: ParamId,
    wr: ParamId,
    ur: ParamId,
    br: ParamId,
    wn: ParamId,
    un: ParamId,
    bn: ParamId,
    input_dim: usize,
    hidden_dim: usize,
}

impl GruCell {
    /// Allocates the nine GRU parameter matrices under `{name}.*`.
    pub fn new(params: &mut Params, name: &str, input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> Self {
        let wz = params.get_or_insert(&format!("{name}.wz"), || xavier_uniform(input_dim, hidden_dim, rng));
        let uz = params.get_or_insert(&format!("{name}.uz"), || xavier_uniform(hidden_dim, hidden_dim, rng));
        let wr = params.get_or_insert(&format!("{name}.wr"), || xavier_uniform(input_dim, hidden_dim, rng));
        let ur = params.get_or_insert(&format!("{name}.ur"), || xavier_uniform(hidden_dim, hidden_dim, rng));
        let wn = params.get_or_insert(&format!("{name}.wn"), || xavier_uniform(input_dim, hidden_dim, rng));
        let un = params.get_or_insert(&format!("{name}.un"), || xavier_uniform(hidden_dim, hidden_dim, rng));
        let bz = params.get_or_insert(&format!("{name}.bz"), || Matrix::zeros(1, hidden_dim));
        let br = params.get_or_insert(&format!("{name}.br"), || Matrix::zeros(1, hidden_dim));
        let bn = params.get_or_insert(&format!("{name}.bn"), || Matrix::zeros(1, hidden_dim));
        Self { wz, uz, bz, wr, ur, br, wn, un, bn, input_dim, hidden_dim }
    }

    /// One recurrence step: `(x, h) -> h'`.
    pub fn step(&self, bind: &Binding, x: Var, h: Var) -> Var {
        let t = bind.tape();
        let gate = |w: ParamId, u: ParamId, b: ParamId, hh: Var| {
            let a = t.matmul(x, bind.var(w));
            let c = t.matmul(hh, bind.var(u));
            let s = t.add(a, c);
            t.add_row_broadcast(s, bind.var(b))
        };
        let z = t.sigmoid(gate(self.wz, self.uz, self.bz, h));
        let r = t.sigmoid(gate(self.wr, self.ur, self.br, h));
        let rh = t.mul(r, h);
        let n = t.tanh(gate(self.wn, self.un, self.bn, rh));
        let zn = t.mul(z, n);
        let oz = t.one_minus(z);
        let ozh = t.mul(oz, h);
        t.add(zn, ozh)
    }

    /// Tape-free batched recurrence step: `n` independent rows advance
    /// together, `(x, h) -> h'` with `x` as `n x input_dim` and `h` as
    /// `n x hidden_dim`. Row `i` is bit-identical to a per-row
    /// [`GruCell::step`] because every kernel involved (matmul,
    /// element-wise maps, broadcasts) operates row-independently with a
    /// fixed per-element order.
    pub fn step_matrix(&self, params: &Params, x: &Matrix, h: &Matrix) -> Matrix {
        let gate = |w: ParamId, u: ParamId, b: ParamId, hh: &Matrix| {
            x.matmul(params.value(w))
                .add(&hh.matmul(params.value(u)))
                .add_row_broadcast(params.value(b))
        };
        let z = gate(self.wz, self.uz, self.bz, h).map(fd_tensor::stable_sigmoid);
        let r = gate(self.wr, self.ur, self.br, h).map(fd_tensor::stable_sigmoid);
        let rh = r.mul(h);
        let n = gate(self.wn, self.un, self.bn, &rh).map(f32::tanh);
        z.mul(&n).add(&z.map(|v| 1.0 - v).mul(h))
    }

    /// A fresh zero hidden state (a constant leaf on the tape).
    pub fn zero_state(&self, bind: &Binding) -> Var {
        bind.tape().leaf(Matrix::zeros(1, self.hidden_dim))
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// All nine parameter handles.
    pub fn param_ids(&self) -> Vec<ParamId> {
        vec![
            self.wz, self.uz, self.bz, self.wr, self.ur, self.br, self.wn, self.un, self.bn,
        ]
    }
}

/// A trainable lookup table mapping token ids to dense rows.
#[derive(Debug, Clone, Copy)]
pub struct Embedding {
    /// The `vocab x dim` table handle.
    pub table: ParamId,
    vocab: usize,
    dim: usize,
}

impl Embedding {
    /// Allocates a `vocab x dim` table under `{name}.table`.
    pub fn new(params: &mut Params, name: &str, vocab: usize, dim: usize, rng: &mut impl Rng) -> Self {
        let table = params.get_or_insert(&format!("{name}.table"), || xavier_uniform(vocab, dim, rng));
        Self { table, vocab, dim }
    }

    /// The `1 x dim` embedding of `token`.
    ///
    /// # Panics
    /// Panics when `token` is out of vocabulary — upstream must map
    /// unknown words to an UNK id.
    pub fn lookup(&self, bind: &Binding, token: usize) -> Var {
        assert!(token < self.vocab, "Embedding::lookup: token {token} >= vocab {}", self.vocab);
        bind.tape().embed_row(bind.var(self.table), token)
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// GRU text encoder with the paper's fusion layer:
/// `x^l = σ(W_f · Σ_t h_t + b_f)` — token embeddings feed a GRU, the hidden
/// states are summed and projected through a sigmoid fusion layer.
///
/// `PAD` tokens (id 0 by convention in `fd-text`) are skipped rather than
/// encoded, matching the zero-padding semantics of the paper.
#[derive(Debug, Clone)]
pub struct GruEncoder {
    /// Token embedding table.
    pub embedding: Embedding,
    /// The recurrent cell.
    pub gru: GruCell,
    /// Fusion projection applied to the summed hidden states.
    pub fusion: Linear,
    pad_id: usize,
}

impl GruEncoder {
    /// Builds an encoder producing `out_dim`-wide latent features.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: &mut Params,
        name: &str,
        vocab: usize,
        embed_dim: usize,
        hidden_dim: usize,
        out_dim: usize,
        pad_id: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let embedding = Embedding::new(params, &format!("{name}.embed"), vocab, embed_dim, rng);
        let gru = GruCell::new(params, &format!("{name}.gru"), embed_dim, hidden_dim, rng);
        let fusion = Linear::new(params, &format!("{name}.fusion"), hidden_dim, out_dim, rng);
        Self { embedding, gru, fusion, pad_id }
    }

    /// Encodes a token-id sequence to a `1 x out_dim` latent feature row.
    ///
    /// An all-PAD (or empty) sequence encodes the zero hidden state
    /// through the fusion layer, so downstream code never needs a special
    /// case.
    pub fn encode(&self, bind: &Binding, tokens: &[usize]) -> Var {
        let t = bind.tape();
        let mut h = self.gru.zero_state(bind);
        let mut sum: Option<Var> = None;
        for &tok in tokens {
            if tok == self.pad_id {
                continue;
            }
            let x = self.embedding.lookup(bind, tok);
            h = self.gru.step(bind, x, h);
            sum = Some(match sum {
                Some(s) => t.add(s, h),
                None => h,
            });
        }
        let pooled = sum.unwrap_or(h);
        let fused = self.fusion.forward(bind, pooled);
        t.sigmoid(fused)
    }

    /// Tape-free batched twin of [`GruEncoder::encode`]: encodes all
    /// `sequences` at once, returning one latent row per sequence.
    ///
    /// Each row consumes its own non-PAD tokens in order (PAD positions
    /// are dropped up front, exactly like the per-node path skips them),
    /// so virtual step `t` advances every row that still has a `t`-th
    /// real token through one batched [`GruCell::step_matrix`]; finished
    /// rows keep their state frozen and stop contributing to the pooled
    /// sum. Row `i` of the result is bit-identical to
    /// `encode(bind, sequences[i])`.
    pub fn encode_batch(&self, params: &Params, sequences: &[&[usize]]) -> Matrix {
        let n = sequences.len();
        let (embed_dim, hidden) = (self.embedding.dim(), self.gru.hidden_dim());
        let tokens: Vec<Vec<usize>> = sequences
            .iter()
            .map(|s| s.iter().copied().filter(|&t| t != self.pad_id).collect())
            .collect();
        let steps = tokens.iter().map(Vec::len).max().unwrap_or(0);

        let table = params.value(self.embedding.table);
        let mut h = Matrix::zeros(n, hidden);
        let mut sum = Matrix::zeros(n, hidden);
        let mut x = Matrix::zeros(n, embed_dim);
        for t in 0..steps {
            for (i, toks) in tokens.iter().enumerate() {
                if let Some(&tok) = toks.get(t) {
                    assert!(
                        tok < self.embedding.vocab(),
                        "GruEncoder::encode_batch: token {tok} >= vocab {}",
                        self.embedding.vocab()
                    );
                    x.row_mut(i).copy_from_slice(table.row(tok));
                }
            }
            let h_next = self.gru.step_matrix(params, &x, &h);
            for (i, toks) in tokens.iter().enumerate() {
                if t < toks.len() {
                    h.row_mut(i).copy_from_slice(h_next.row(i));
                    if t == 0 {
                        // First real token: the per-node path starts its
                        // running sum *at* h, not at 0 + h.
                        sum.row_mut(i).copy_from_slice(h_next.row(i));
                    } else {
                        for (s, &v) in sum.row_mut(i).iter_mut().zip(h_next.row(i)) {
                            *s += v;
                        }
                    }
                }
            }
        }
        // Rows with no real tokens pool the zero state, matching the
        // per-node fallback; `sum` is already zero there.
        self.fusion.forward_matrix(params, &sum).map(fd_tensor::stable_sigmoid)
    }

    /// Tape-recorded batched twin of [`GruEncoder::encode`]: encodes all
    /// `sequences` in one pass, returning an `n x out_dim` [`Var`] whose
    /// row `i` is bit-identical to `encode(bind, sequences[i])` — and
    /// whose backward pass produces the same parameter gradients as the
    /// per-node tape would, because every batched op's adjoint reduces in
    /// the same order the per-node ops do.
    ///
    /// The virtual-step schedule mirrors [`GruEncoder::encode_batch`]:
    /// finished rows keep gathering their last token (the stale-`x`
    /// convention) but their `h_next` row is discarded by the row mask,
    /// so no gradient flows through the stale lookup.
    pub fn encode_batch_tape(&self, bind: &Binding, sequences: &[&[usize]]) -> Var {
        let t = bind.tape();
        let n = sequences.len();
        let hidden = self.gru.hidden_dim();
        let tokens: Vec<Vec<usize>> = sequences
            .iter()
            .map(|s| s.iter().copied().filter(|&tok| tok != self.pad_id).collect())
            .collect();
        let steps = tokens.iter().map(Vec::len).max().unwrap_or(0);

        let table = bind.var(self.embedding.table);
        let mut h = t.leaf(Matrix::zeros(n, hidden));
        let mut sum = t.leaf(Matrix::zeros(n, hidden));
        for step in 0..steps {
            let idx: Vec<Option<usize>> = tokens
                .iter()
                .map(|toks| {
                    let &tok = toks.get(step.min(toks.len().wrapping_sub(1)))?;
                    assert!(
                        tok < self.embedding.vocab(),
                        "GruEncoder::encode_batch_tape: token {tok} >= vocab {}",
                        self.embedding.vocab()
                    );
                    Some(tok)
                })
                .collect();
            let x = t.gather_rows(table, &idx);
            let h_next = self.gru.step(bind, x, h);
            let active: Vec<bool> = tokens.iter().map(|toks| step < toks.len()).collect();
            h = t.mask_rows(h_next, h, &active);
            let phase: Vec<RowAccum> = tokens
                .iter()
                .map(|toks| {
                    if step >= toks.len() {
                        RowAccum::Skip
                    } else if step == 0 {
                        RowAccum::Start
                    } else {
                        RowAccum::Add
                    }
                })
                .collect();
            sum = t.accum_rows(sum, h_next, &phase);
        }
        // Rows with no real tokens pool the zero state, matching the
        // per-node fallback.
        let fused = self.fusion.forward(bind, sum);
        t.sigmoid(fused)
    }

    /// Output width of [`GruEncoder::encode`].
    pub fn out_dim(&self) -> usize {
        self.fusion.out_dim()
    }

    /// All parameter handles of the encoder.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = vec![self.embedding.table];
        ids.extend(self.gru.param_ids());
        ids.extend(self.fusion.param_ids());
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_autograd::Tape;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_shapes_and_bias() {
        let mut params = Params::new();
        let mut r = rng();
        let layer = Linear::new(&mut params, "l", 3, 5, &mut r);
        assert_eq!(params.value(layer.w).shape(), (3, 5));
        assert_eq!(params.value(layer.b).shape(), (1, 5));
        let tape = Tape::new();
        let bind = Binding::new(&tape, &params);
        let x = tape.leaf(Matrix::zeros(2, 3));
        let y = layer.forward(&bind, x);
        assert_eq!(tape.shape(y), (2, 5));
        // With zero input, output rows equal the bias (zeros here).
        assert_eq!(tape.value(y), Matrix::zeros(2, 5));
    }

    #[test]
    fn linear_is_reconstructable_by_name() {
        let mut params = Params::new();
        let mut r = rng();
        let l1 = Linear::new(&mut params, "shared", 2, 2, &mut r);
        let l2 = Linear::new(&mut params, "shared", 2, 2, &mut r);
        assert_eq!(l1.w, l2.w);
        assert_eq!(params.len(), 2);
    }

    #[test]
    fn gru_step_keeps_hidden_shape_and_changes_state() {
        let mut params = Params::new();
        let mut r = rng();
        let cell = GruCell::new(&mut params, "g", 4, 6, &mut r);
        assert_eq!(params.len(), 9);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &params);
        let h0 = cell.zero_state(&bind);
        let x = tape.leaf(Matrix::filled(1, 4, 0.5));
        let h1 = cell.step(&bind, x, h0);
        assert_eq!(tape.shape(h1), (1, 6));
        assert_ne!(tape.value(h1), tape.value(h0), "state must move off zero");
        // Bounded by construction: every component is a convex mix of
        // tanh outputs and the previous state.
        assert!(tape.value(h1).max_abs() <= 1.0);
    }

    #[test]
    fn gru_is_deterministic_given_seed() {
        let build = || {
            let mut params = Params::new();
            let mut r = rng();
            let cell = GruCell::new(&mut params, "g", 2, 3, &mut r);
            let tape = Tape::new();
            let bind = Binding::new(&tape, &params);
            let mut h = cell.zero_state(&bind);
            for step in 0..5 {
                let x = tape.leaf(Matrix::filled(1, 2, step as f32 * 0.1));
                h = cell.step(&bind, x, h);
            }
            tape.value(h)
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn embedding_lookup_reads_table_row() {
        let mut params = Params::new();
        let mut r = rng();
        let emb = Embedding::new(&mut params, "e", 10, 4, &mut r);
        let expected = params.value(emb.table).row_matrix(7);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &params);
        let v = emb.lookup(&bind, 7);
        assert_eq!(tape.value(v), expected);
    }

    #[test]
    #[should_panic(expected = "token 10 >= vocab 10")]
    fn embedding_rejects_oov() {
        let mut params = Params::new();
        let mut r = rng();
        let emb = Embedding::new(&mut params, "e", 10, 4, &mut r);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &params);
        let _ = emb.lookup(&bind, 10);
    }

    #[test]
    fn encoder_handles_empty_and_padded_sequences() {
        let mut params = Params::new();
        let mut r = rng();
        let enc = GruEncoder::new(&mut params, "enc", 20, 4, 6, 8, 0, &mut r);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &params);
        let empty = enc.encode(&bind, &[]);
        assert_eq!(tape.shape(empty), (1, 8));
        let padded = enc.encode(&bind, &[0, 0, 0]);
        assert_eq!(tape.value(empty), tape.value(padded), "PAD-only equals empty");
        let real = enc.encode(&bind, &[3, 7, 0, 12]);
        assert_ne!(tape.value(real), tape.value(empty));
        // Sigmoid output: strictly inside (0, 1).
        assert!(tape.value(real).as_slice().iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn encoder_order_sensitivity() {
        // A recurrent encoder must distinguish word order (unlike BoW).
        let mut params = Params::new();
        let mut r = rng();
        let enc = GruEncoder::new(&mut params, "enc", 20, 4, 6, 8, 0, &mut r);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &params);
        let ab = enc.encode(&bind, &[1, 2, 3, 4]);
        let ba = enc.encode(&bind, &[4, 3, 2, 1]);
        assert_ne!(tape.value(ab), tape.value(ba));
    }

    #[test]
    fn encode_batch_tape_matches_per_node_values_and_grads() {
        let mut params = Params::new();
        let mut r = rng();
        let enc = GruEncoder::new(&mut params, "enc", 20, 4, 6, 8, 0, &mut r);
        // Mixed lengths, PAD runs, one empty, one PAD-only sequence.
        let seqs: [&[usize]; 5] = [&[3, 7, 0, 12], &[5], &[], &[0, 0], &[9, 1, 2, 2, 14]];

        // Per-node reference: encode each row alone, sum of square norms.
        let tape_ref = Tape::new();
        let bind_ref = Binding::new(&tape_ref, &params);
        let rows: Vec<_> = seqs.iter().map(|s| enc.encode(&bind_ref, s)).collect();
        let norms: Vec<_> = rows.iter().map(|&v| tape_ref.square_norm(v)).collect();
        let loss_ref = tape_ref.sum_n(&norms);
        tape_ref.backward(loss_ref);
        let grads_ref = bind_ref.grads();

        let tape = Tape::new();
        let bind = Binding::new(&tape, &params);
        let batched = enc.encode_batch_tape(&bind, &seqs);
        assert_eq!(tape.shape(batched), (5, 8));
        for (i, &row) in rows.iter().enumerate() {
            assert_eq!(
                tape_ref.value(row).row(0),
                tape.with_value(batched, |m| m.row(i).to_vec()),
                "row {i} must be bit-identical to the per-node encode"
            );
        }
        // Tape-free batch path agrees bitwise too.
        assert_eq!(tape.value(batched), enc.encode_batch(&params, &seqs));

        let loss = tape.square_norm(batched);
        tape.backward(loss);
        let grads = bind.grads();
        assert_eq!(grads.len(), grads_ref.len());
        for ((id_a, ga), (id_b, gb)) in grads.iter().zip(&grads_ref) {
            assert_eq!(id_a, id_b);
            fd_tensor::assert_close(ga, gb, 1e-4);
        }
    }

    #[test]
    fn encoder_trains_toward_target() {
        // Tiny sanity fit: push the encoder output toward zero and verify
        // the loss drops. End-to-end learning tests live in the trainer.
        use crate::Adam;
        let mut params = Params::new();
        let mut r = rng();
        let enc = GruEncoder::new(&mut params, "enc", 10, 3, 4, 2, 0, &mut r);
        let mut opt = Adam::new(5e-2);
        let seq = [1usize, 2, 3];
        let loss_at = |params: &Params| {
            let tape = Tape::new();
            let bind = Binding::new(&tape, params);
            let out = enc.encode(&bind, &seq);
            let loss = tape.square_norm(out);
            tape.with_value(loss, |m| m[(0, 0)])
        };
        let before = loss_at(&params);
        for _ in 0..30 {
            let tape = Tape::new();
            let bind = Binding::new(&tape, &params);
            let out = enc.encode(&bind, &seq);
            let loss = tape.square_norm(out);
            tape.backward(loss);
            let grads = bind.grads();
            opt.apply(&mut params, &grads);
        }
        let after = loss_at(&params);
        assert!(after < before * 0.5, "loss {before} -> {after} did not drop");
    }
}
