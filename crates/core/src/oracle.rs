//! The per-node reference tape, kept as a test oracle: one tape variable
//! per node and round, the arithmetic of §4.1–4.3 written node by node
//! with the per-node GRU. The batched tape forward and the tape-free
//! forward are checked against it bitwise (the training loss too;
//! gradients agree up to float reassociation). Inductive scoring is
//! checked against `TrainedFakeDetector::extended_states_rounds`, the
//! reference ingest answers to.

use crate::model::Network;
use crate::{FakeDetectorConfig, Hflu, TrainedFakeDetector};
use fd_autograd::{Tape, Var};
use fd_data::ExperimentContext;
use fd_graph::NodeType;
use fd_nn::Binding;
use fd_tensor::Matrix;

/// One node's HFLU row, `[x^e | x^l]`, from its raw inputs.
fn hflu_row(hflu: &Hflu, bind: &Binding<'_>, explicit: Matrix, sequence: &[usize]) -> Var {
    let tape = bind.tape();
    let explicit = hflu.use_explicit.then(|| tape.leaf(explicit));
    let latent = hflu.encoder.as_ref().map(|enc| enc.encode(bind, sequence));
    match (explicit, latent) {
        (Some(e), Some(l)) => tape.concat_cols(e, l),
        (Some(e), None) => e,
        (None, Some(l)) => l,
        (None, None) => unreachable!("config validation forbids both halves off"),
    }
}

/// Mean of the listed states, or the zero state when diffusion is
/// ablated or the list is empty.
fn aggregate(
    config: &FakeDetectorConfig,
    tape: &Tape,
    states: &[Var],
    list: &[usize],
    zero: Var,
) -> Var {
    if !config.use_diffusion || list.is_empty() {
        return zero;
    }
    let vars: Vec<Var> = list.iter().map(|&i| states[i]).collect();
    tape.mean_n(&vars)
}

/// Full-graph forward, node by node: HFLU features once, then
/// `diffusion_rounds` synchronous GDU updates from zero states.
pub(crate) fn states(
    network: &Network,
    config: &FakeDetectorConfig,
    bind: &Binding<'_>,
    ctx: &ExperimentContext<'_>,
) -> [Vec<Var>; 3] {
    let tape = bind.tape();
    let graph = &ctx.corpus.graph;
    let counts = [graph.n_articles(), graph.n_creators(), graph.n_subjects()];
    let feats: [Vec<Var>; 3] = std::array::from_fn(|slot| {
        let ty = NodeType::ALL[slot];
        (0..counts[slot])
            .map(|i| {
                let explicit = ctx.explicit.feature(ty, i).clone();
                hflu_row(&network.hflu[slot], bind, explicit, ctx.tokenized.sequence(ty, i))
            })
            .collect()
    });
    let zero = tape.leaf(Matrix::zeros(1, config.gdu_hidden));
    let mut states: [Vec<Var>; 3] = counts.map(|n| vec![zero; n]);
    for _round in 0..config.diffusion_rounds.max(1) {
        let mut next: [Vec<Var>; 3] = counts.map(Vec::with_capacity);
        for (a, &feat) in feats[0].iter().enumerate() {
            let z = aggregate(config, tape, &states[2], graph.subjects_of_article(a), zero);
            let t_in = match graph.author_of(a) {
                Some(u) if config.use_diffusion => states[1][u],
                _ => zero,
            };
            next[0].push(network.gdu[0].forward(bind, feat, z, t_in, config.use_gates));
        }
        for (u, &feat) in feats[1].iter().enumerate() {
            let z = aggregate(config, tape, &states[0], graph.articles_of_creator(u), zero);
            next[1].push(network.gdu[1].forward(bind, feat, z, zero, config.use_gates));
        }
        for (s, &feat) in feats[2].iter().enumerate() {
            let z = aggregate(config, tape, &states[0], graph.articles_of_subject(s), zero);
            next[2].push(network.gdu[2].forward(bind, feat, z, zero, config.use_gates));
        }
        states = next;
    }
    states
}

/// The training objective over `items` (type, index, target class): one
/// cross-entropy variable per item, then α·L2, summed left to right.
pub(crate) fn loss(
    network: &Network,
    config: &FakeDetectorConfig,
    bind: &Binding<'_>,
    ctx: &ExperimentContext<'_>,
    items: &[(NodeType, usize, usize)],
) -> Var {
    let tape = bind.tape();
    let states = states(network, config, bind, ctx);
    let mut losses: Vec<Var> = Vec::with_capacity(items.len() + 1);
    for &(ty, idx, target) in items {
        let logits = network.heads[ty.slot()].forward(bind, states[ty.slot()][idx]);
        losses.push(tape.softmax_cross_entropy(logits, target));
    }
    if config.reg_alpha > 0.0 && !network.reg_ids.is_empty() {
        losses.push(tape.scale(bind.l2_term(&network.reg_ids), config.reg_alpha));
    }
    tape.sum_n(&losses)
}

/// Every corpus node's head logits (`1 x classes`), type-slot indexed.
pub(crate) fn logits(
    trained: &TrainedFakeDetector,
    ctx: &ExperimentContext<'_>,
) -> [Vec<Matrix>; 3] {
    let network = &trained.network;
    let tape = Tape::with_capacity(1 << 16);
    let bind = Binding::new(&tape, &network.params);
    let states = states(network, &trained.config, &bind, ctx);
    std::array::from_fn(|slot| {
        states[slot].iter().map(|&h| tape.value(network.heads[slot].forward(&bind, h))).collect()
    })
}
