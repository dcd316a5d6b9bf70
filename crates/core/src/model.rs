//! The deep diffusive network: HFLU + GDU per node type, unrolled
//! diffusion over the News-HSN, joint training (Section 4.3).

use crate::checkpoint::{self, FitOptions};
use crate::subgraph::{sample_subgraph, Adjacency, Subgraph};
use crate::trained::TrainedFakeDetector;
use crate::{FakeDetectorConfig, GduCell, Hflu, HfluInput, TrainMode};
use fd_autograd::{Tape, Var};
use fd_data::{CredibilityModel, ExperimentContext, Predictions};
use fd_graph::{HetGraph, NeighborSampler, NodeType};
use fd_nn::{clip_global_norm, Adam, AdamState, Binding, Linear, ParamId, Params};
use fd_tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::borrow::Cow;
use std::sync::Arc;

/// Seed-mixing constant for the internal validation split.
const VAL_SPLIT_MIX: u64 = 0x7a11_da7e;

/// Seed-mixing constant for the neighbour sampler of sampled training.
const SAMPLER_MIX: u64 = 0x5a3b_1e5e_ed00_0001;

/// Seed-mixing constant for the per-epoch minibatch shuffle.
const BATCH_SHUFFLE_MIX: u64 = 0xba7c_0bdf_0000_0002;

/// Sampler salt reserved for the validation subgraphs (training batches
/// salt with `epoch * GOLDEN + batch + 1`, which never reaches this).
const VAL_SAMPLE_SALT: u64 = u64::MAX;

/// How many times the divergence guard may halve the learning rate
/// before giving up and returning the last good weights.
const MAX_LR_HALVINGS: u32 = 6;

/// Without a checkpoint store the divergence guard still needs a
/// rollback target; refresh it every this many epochs.
const GUARD_EVERY: usize = 10;

/// Validation accuracy over `chunks`, each a set of diffusion states and
/// held-out items as `(slot, state row, target class)` into them. It is
/// macro-averaged over the entity types present, so the article-heavy
/// validation pool does not drown out creators/subjects. One batched row
/// gather plus one head matmul per entity type and chunk; bit-identical
/// to scoring each item alone because both the gather and the head are
/// row-independent.
fn validation_accuracy<'a>(
    network: &Network,
    chunks: impl IntoIterator<Item = ([Matrix; 3], &'a [(usize, usize, usize)])>,
) -> f64 {
    let (mut correct, mut total) = ([0usize; 3], [0usize; 3]);
    for (states, items) in chunks {
        let mut rows: [Vec<Option<usize>>; 3] = Default::default();
        let mut targets: [Vec<usize>; 3] = Default::default();
        for &(slot, row, target) in items {
            rows[slot].push(Some(row));
            targets[slot].push(target);
        }
        for slot in 0..3 {
            if rows[slot].is_empty() {
                continue;
            }
            let sel = fd_tensor::gather_rows(&states[slot], &rows[slot]);
            let logits = network.heads[slot].forward_matrix(&network.params, &sel);
            correct[slot] += targets[slot]
                .iter()
                .enumerate()
                .filter(|&(k, &target)| logits.row_argmax(k).index == target)
                .count();
            total[slot] += rows[slot].len();
        }
    }
    let (mut acc_sum, mut types_present) = (0.0f64, 0usize);
    for slot in 0..3 {
        if total[slot] > 0 {
            acc_sum += correct[slot] as f64 / total[slot] as f64;
            types_present += 1;
        }
    }
    acc_sum / types_present.max(1) as f64
}

/// Samples the `hops`-hop subgraph around `items`, given as `(slot,
/// corpus index, target class)`, and returns it with the items
/// re-addressed as rows of the subgraph.
fn sample_batch(
    graph: &HetGraph,
    sampler: &NeighborSampler,
    items: &[(usize, usize, usize)],
    hops: usize,
    salt: u64,
) -> (Subgraph, Vec<(usize, usize, usize)>) {
    let seeds: Vec<(NodeType, usize)> =
        items.iter().map(|&(slot, idx, _)| (NodeType::ALL[slot], idx)).collect();
    let sub = sample_subgraph(graph, sampler, &seeds, hops, salt);
    let rows = items
        .iter()
        .zip(&sub.seed_rows)
        .map(|(&(_, _, target), &(slot, row))| (slot, row, target))
        .collect();
    (sub, rows)
}

/// One step's objective, `L(T_n) + L(T_u) + L(T_s) + reg_scale · L_reg`,
/// over `items` given as `(slot, state row, target class)`. Each type's
/// rows go through its head as one matrix; the stacked logits are then
/// re-gathered into item order, so the summed cross-entropy adds the
/// per-item terms left to right in exactly the per-node reference's
/// order — that association is what keeps the loss bit-comparable to
/// it. Returns the loss and the item-ordered logits.
fn step_loss(
    network: &Network,
    bind: &Binding<'_>,
    states: &[Var; 3],
    items: &[(usize, usize, usize)],
    reg_scale: f32,
) -> (Var, Var) {
    let tape = bind.tape();
    let mut rows: [Vec<Option<usize>>; 3] = Default::default();
    let mut within: Vec<usize> = Vec::with_capacity(items.len());
    for &(slot, row, _) in items {
        within.push(rows[slot].len());
        rows[slot].push(Some(row));
    }
    let offsets = [0, rows[0].len(), rows[0].len() + rows[1].len()];
    let order: Vec<Option<usize>> =
        items.iter().zip(&within).map(|(&(slot, _, _), &w)| Some(offsets[slot] + w)).collect();
    let targets: Vec<usize> = items.iter().map(|&(_, _, target)| target).collect();
    let mut stacked: Option<Var> = None;
    for slot in 0..3 {
        if rows[slot].is_empty() {
            continue;
        }
        let sel = tape.gather_rows(states[slot], &rows[slot]);
        let logits = network.heads[slot].forward(bind, sel);
        stacked = Some(match stacked {
            Some(s) => tape.concat_rows(s, logits),
            None => logits,
        });
    }
    let ordered = tape.gather_rows(stacked.expect("a step has at least one item"), &order);
    let ce = tape.softmax_cross_entropy_rows(ordered, &targets);
    let loss = if reg_scale > 0.0 && !network.reg_ids.is_empty() {
        let reg = bind.l2_term(&network.reg_ids);
        tape.add(ce, tape.scale(reg, reg_scale))
    } else {
        ce
    };
    (loss, ordered)
}

/// One optimiser step: the subgraph its forward runs over and the fit
/// items whose loss it carries, as `(slot, local row, target)`; its
/// share of the epoch's one α·L2 term is its share of the fit items.
/// The other fields are the train mode's say in the step body.
struct Step<'a> {
    sub: Cow<'a, Subgraph>,
    items: Cow<'a, [(usize, usize, usize)]>,
    /// `Adam::apply`, or the lazy `Adam::apply_sparse` for sampled steps.
    update: fn(&mut Adam, &mut Params, &[(ParamId, Matrix)]),
    /// Validation items scored on the step's own pre-update states.
    validates: Option<&'a [(usize, usize, usize)]>,
    /// The subgraph was sampled for this step (a `train.sample` lap).
    sampled: bool,
}

/// How a fit splits each epoch into steps.
enum Batching {
    /// One step per epoch over the whole graph, built once per fit; the
    /// step also scores the validation items, rows of the whole graph.
    Whole {
        sub: Subgraph,
        items: Vec<(usize, usize, usize)>,
        val_items: Vec<(usize, usize, usize)>,
    },
    /// Shuffled minibatches, each over its own k-hop subgraph.
    Sampled {
        batch_size: usize,
        hops: usize,
        sampler: NeighborSampler,
        /// Fan-out, subgraph-node and subgraph-edge histograms.
        hists: [&'static fd_obs::Histogram; 3],
    },
}

impl Batching {
    /// The steps of epoch `epoch`. Sampled subgraphs are drawn lazily,
    /// one per step, so only one is alive at a time. The batch order is
    /// keyed on `(seed, epoch)` and each sample salt on `(epoch, batch)`,
    /// so a checkpoint resume replays the exact remaining batches.
    fn steps<'a>(
        &'a self,
        graph: &'a HetGraph,
        fit_items: &[(usize, usize, usize)],
        seed: u64,
        epoch: usize,
    ) -> Box<dyn Iterator<Item = Step<'a>> + 'a> {
        let (batch_size, hops, sampler, [fanout_hist, nodes_hist, edges_hist]) = match self {
            Batching::Whole { sub, items, val_items } => {
                return Box::new(std::iter::once(Step {
                    sub: Cow::Borrowed(sub),
                    items: Cow::Borrowed(items),
                    update: Adam::apply,
                    validates: (!val_items.is_empty()).then_some(val_items.as_slice()),
                    sampled: false,
                }));
            }
            Batching::Sampled { batch_size, hops, sampler, hists } => {
                (*batch_size, *hops, sampler, *hists)
            }
        };
        let epoch_key = (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut order = fit_items.to_vec();
        order.shuffle(&mut StdRng::seed_from_u64(seed ^ BATCH_SHUFFLE_MIX ^ epoch_key));
        let batches: Vec<Vec<_>> = order.chunks(batch_size).map(<[_]>::to_vec).collect();
        Box::new(batches.into_iter().enumerate().map(move |(b, batch)| {
            // Never reaches VAL_SAMPLE_SALT, reserved for validation.
            let salt = epoch_key.wrapping_add(b as u64 + 1);
            let (sub, items) = sample_batch(graph, sampler, &batch, hops, salt);
            nodes_hist.record(sub.n_nodes() as f64);
            edges_hist.record(sub.n_sampled_edges() as f64);
            for list in sub
                .subjects_of_article
                .iter()
                .chain(sub.articles_of_creator.iter())
                .chain(sub.articles_of_subject.iter())
            {
                fanout_hist.record(list.len() as f64);
            }
            Step {
                sub: Cow::Owned(sub),
                items: Cow::Owned(items),
                update: Adam::apply_sparse,
                validates: None,
                sampled: true,
            }
        }))
    }
}

/// Times the phases of one training epoch for the profiler: [`lap`]
/// records the time since the previous lap (or [`reset`]) into the
/// phase's histogram and — when the run is traced — as a span under
/// the epoch's trace context, nesting `train.fit` → `train.epoch` →
/// phase in the exported Chrome trace.
///
/// [`lap`]: PhaseTimer::lap
/// [`reset`]: PhaseTimer::reset
struct PhaseTimer<'a> {
    parent: &'a fd_obs::TraceCtx,
    started: std::time::Instant,
    started_us: u64,
}

impl<'a> PhaseTimer<'a> {
    fn start(parent: &'a fd_obs::TraceCtx) -> Self {
        Self { parent, started: std::time::Instant::now(), started_us: fd_obs::trace::now_us() }
    }

    /// Restarts the clock without recording — skips code between laps
    /// that belongs to no phase.
    fn reset(&mut self) {
        self.started = std::time::Instant::now();
        self.started_us = fd_obs::trace::now_us();
    }

    /// Closes the current phase and restarts the clock.
    fn lap(&mut self, name: &'static str, hist: &fd_obs::Histogram) {
        let dur = self.started.elapsed();
        hist.record(dur.as_secs_f64() * 1e6);
        if self.parent.sampled {
            self.parent.child().record(name, self.started_us, dur.as_micros() as u64);
        }
        self.reset();
    }
}

/// Per-epoch training diagnostics.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct TrainReport {
    /// Total loss (cross-entropy + α·L2) per epoch.
    pub losses: Vec<f32>,
    /// Pre-clip global gradient norm per epoch.
    pub grad_norms: Vec<f32>,
    /// Wall-clock milliseconds per epoch (absent in reports saved before
    /// this field existed). Epochs replayed from a checkpoint resume
    /// are recorded as 0.0 — wall-clock history is deliberately *not*
    /// part of the durable state, so checkpoint files stay
    /// byte-comparable across runs.
    #[serde(default)]
    pub epoch_ms: Vec<f64>,
    /// Times the divergence guard fired: a non-finite loss or gradient
    /// norm rolled training back to the last good snapshot with a
    /// halved learning rate. Not persisted in checkpoints (resumed
    /// reports restart the count).
    #[serde(default)]
    pub divergence_rollbacks: u32,
}

/// Early-stopping state: the best validation accuracy so far with the
/// weights that scored it, and the epochs since it last improved.
#[derive(Clone, Default)]
struct EarlyStop {
    best: Option<(f64, Params)>,
    since_best: usize,
}

impl EarlyStop {
    /// Records that `params` scored validation accuracy `acc`.
    fn observe(&mut self, acc: f64, params: &Params) {
        if self.best.as_ref().is_none_or(|(b, _)| acc > *b) {
            self.best = Some((acc, params.clone()));
            self.since_best = 0;
        } else {
            self.since_best += 1;
        }
    }
}

/// The divergence guard's rollback target: a full copy of the mutable
/// training state, taken at checkpoint cadence. Rolling back *several*
/// epochs matters: training is deterministic in the weights, so
/// re-running only the failed epoch with the same state would replay
/// the same non-finite loss — the halved learning rate must get some
/// epochs of different trajectory to steer away from the blow-up.
struct GuardSnapshot {
    epoch: usize,
    params: Params,
    opt: AdamState,
    early: EarlyStop,
    n_hist: usize,
}

impl GuardSnapshot {
    fn capture(
        epoch: usize,
        network: &Network,
        optimizer: &Adam,
        early: &EarlyStop,
        report: &TrainReport,
    ) -> Self {
        Self {
            epoch,
            params: network.params.clone(),
            opt: optimizer.export_state(&network.params),
            early: early.clone(),
            n_hist: report.losses.len(),
        }
    }
}

/// Rolls training back to the divergence guard's snapshot with a halved
/// learning rate. Returns `false` when the halving budget is exhausted
/// and training should stop with the last good weights.
fn rollback_divergence(
    network: &mut Network,
    optimizer: &mut Adam,
    guard: &GuardSnapshot,
    early: &mut EarlyStop,
    report: &mut TrainReport,
    epoch: &mut usize,
    lr_halvings: &mut u32,
) -> bool {
    report.divergence_rollbacks += 1;
    fd_obs::counter("train.divergence_rollbacks").inc();
    network.params = guard.params.clone();
    optimizer
        .restore_state(&network.params, &guard.opt)
        .expect("guard snapshot always matches the live network");
    *early = guard.early.clone();
    report.losses.truncate(guard.n_hist);
    report.grad_norms.truncate(guard.n_hist);
    report.epoch_ms.truncate(guard.n_hist);
    *epoch = guard.epoch;
    if *lr_halvings >= MAX_LR_HALVINGS {
        fd_obs::event(
            fd_obs::Level::Error,
            "train.diverged",
            &[("epoch", (*epoch).into()), ("lr", optimizer.lr().into())],
        );
        return false;
    }
    let halved = optimizer.lr() * 0.5;
    optimizer.set_lr(halved);
    *lr_halvings += 1;
    fd_obs::event(
        fd_obs::Level::Error,
        "train.divergence_rollback",
        &[
            ("epoch", (*epoch).into()),
            ("lr", halved.into()),
            ("lr_halvings", (*lr_halvings).into()),
        ],
    );
    true
}

/// Writes the guard snapshot `state`, the training state entering epoch
/// `state.epoch`, as a durable checkpoint through the store's
/// atomic-rename protocol, so the guard and the file hold the same state.
#[allow(clippy::too_many_arguments)]
fn save_checkpoint(
    store: &fd_ckpt::CheckpointStore,
    state: &GuardSnapshot,
    report: &TrainReport,
    lr: f32,
    lr_halvings: u32,
    seed: u64,
    dims: NetworkDims,
    fingerprint: &str,
) -> Result<std::path::PathBuf, String> {
    let epoch_done = state.epoch;
    let (opt_m, opt_v) = checkpoint::adam_to_entries(&state.opt);
    let ckpt = fd_ckpt::TrainCheckpoint {
        epoch: epoch_done as u64,
        opt_step: state.opt.step,
        lr: f64::from(lr),
        seed,
        vocab: dims.vocab as u64,
        explicit_dim: dims.explicit_dim as u64,
        n_classes: dims.n_classes as u64,
        since_best: state.early.since_best as u64,
        lr_halvings: u64::from(lr_halvings),
        best_acc: state.early.best.as_ref().map(|(acc, _)| *acc),
        config_fingerprint: fingerprint.to_string(),
        losses: report.losses.iter().map(|&l| f64::from(l)).collect(),
        grad_norms: report.grad_norms.iter().map(|&g| f64::from(g)).collect(),
        params: checkpoint::params_to_entries(&state.params),
        opt_m,
        opt_v,
        best_params: state
            .early
            .best
            .as_ref()
            .map(|(_, p)| checkpoint::params_to_entries(p))
            .unwrap_or_default(),
    };
    let path = store
        .save(&ckpt)
        .map_err(|e| format!("checkpoint save at epoch {epoch_done} failed: {e}"))?;
    fd_obs::counter("ckpt.saves").inc();
    fd_obs::event(
        fd_obs::Level::Debug,
        "ckpt.saved",
        &[("epoch", epoch_done.into()), ("path", path.display().to_string().into())],
    );
    Ok(path)
}

/// The assembled network: parameter store plus the per-type components.
///
/// Construction is deterministic in `(config, dims, seed)`; rebuilding
/// over an existing [`Params`] store (same names, insertion order)
/// re-attaches to the stored weights, which is how deserialisation works.
pub(crate) struct Network {
    pub params: Params,
    pub hflu: [Hflu; 3],
    pub gdu: [GduCell; 3],
    pub heads: [Linear; 3],
    pub reg_ids: Vec<ParamId>,
}

/// Structural dimensions a network was built for; persisted alongside
/// the weights so a loaded model can verify its context matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub(crate) struct NetworkDims {
    pub vocab: usize,
    pub explicit_dim: usize,
    pub n_classes: usize,
}

impl Network {
    /// Builds (or re-attaches to) the network components over `params`.
    pub fn build(
        config: &FakeDetectorConfig,
        dims: NetworkDims,
        mut params: Params,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let hflu: [Hflu; 3] = [
            Hflu::new(&mut params, "hflu.article", dims.vocab, dims.explicit_dim, config, &mut rng),
            Hflu::new(&mut params, "hflu.creator", dims.vocab, dims.explicit_dim, config, &mut rng),
            Hflu::new(&mut params, "hflu.subject", dims.vocab, dims.explicit_dim, config, &mut rng),
        ];
        let x_dim = config.hflu_out_dim(dims.explicit_dim);
        let gdu: [GduCell; 3] = [
            GduCell::new(&mut params, "gdu.article", x_dim, config.gdu_hidden, &mut rng),
            GduCell::new(&mut params, "gdu.creator", x_dim, config.gdu_hidden, &mut rng),
            GduCell::new(&mut params, "gdu.subject", x_dim, config.gdu_hidden, &mut rng),
        ];
        let heads: [Linear; 3] = [
            Linear::new(&mut params, "head.article", config.gdu_hidden, dims.n_classes, &mut rng),
            Linear::new(&mut params, "head.creator", config.gdu_hidden, dims.n_classes, &mut rng),
            Linear::new(&mut params, "head.subject", config.gdu_hidden, dims.n_classes, &mut rng),
        ];
        let reg_ids: Vec<ParamId> = hflu
            .iter()
            .flat_map(Hflu::param_ids)
            .chain(gdu.iter().flat_map(GduCell::param_ids))
            .chain(heads.iter().flat_map(Linear::param_ids))
            .collect();
        Self { params, hflu, gdu, heads, reg_ids }
    }

    /// The tape forward: HFLU-encodes `sub`'s nodes, then unrolls
    /// `rounds` synchronous GDU updates over its neighbour lists, one
    /// `count x hidden` variable per node type and round. Round 0 sees
    /// zero neighbour states, so with `L` rounds information travels `L`
    /// hops — the unrolled reading of Figure 3(c)'s mutual data flow.
    ///
    /// A full-graph step runs it over [`Subgraph::whole`], a sampled step
    /// over a sampled k-hop subgraph, so tape size per step scales with
    /// the node set, not the corpus. A node whose whole neighbourhood
    /// the subgraph covers (fan-out at or above its degree, node
    /// interior to the hop radius) gets its full-graph row bit for bit;
    /// at the receptive-field boundary neighbourhoods are truncated (the
    /// GraphSAGE approximation). Every matmul routes through the
    /// blocked/parallel kernels, so `FD_THREADS` speeds up training too.
    pub fn forward_states_subgraph(
        &self,
        config: &FakeDetectorConfig,
        bind: &Binding<'_>,
        ctx: &ExperimentContext<'_>,
        sub: &Subgraph,
        rounds: usize,
    ) -> [Var; 3] {
        let tape = bind.tape();
        let hidden = config.gdu_hidden;
        let feats: [Var; 3] = std::array::from_fn(|slot| {
            let nodes = sub.nodes[slot].iter().copied();
            self.hflu[slot].encode_tape(bind, HfluInput::gather(ctx, NodeType::ALL[slot], nodes))
        });
        let zeros: [Var; 3] = sub.counts().map(|n| tape.leaf(Matrix::zeros(n, hidden)));
        let mut states = zeros;
        for _round in 0..rounds.max(1) {
            states = if config.use_diffusion {
                let z_articles = tape.mean_rows(states[2], Arc::clone(&sub.subjects_of_article));
                let t_articles = tape.gather_rows(states[1], &sub.author);
                let z_creators = tape.mean_rows(states[0], Arc::clone(&sub.articles_of_creator));
                let z_subjects = tape.mean_rows(states[0], Arc::clone(&sub.articles_of_subject));
                [
                    self.gdu[0].forward(bind, feats[0], z_articles, t_articles, config.use_gates),
                    self.gdu[1].forward(bind, feats[1], z_creators, zeros[1], config.use_gates),
                    self.gdu[2].forward(bind, feats[2], z_subjects, zeros[2], config.use_gates),
                ]
            } else {
                [0, 1, 2].map(|slot| {
                    self.gdu[slot].forward(bind, feats[slot], zeros[slot], zeros[slot], config.use_gates)
                })
            };
        }
        states
    }
    /// The tape-free forward: HFLU-encodes `inputs(slot)` (one row per
    /// node of `adj`) for each node type, then runs the schedule of
    /// [`Network::forward_states_subgraph`] over `adj` on plain matrices,
    /// keeping every round: element `r` holds the states after round
    /// `r + 1`. Row `i` of each matrix is bit-identical to the tape value
    /// for node `i` — the blocked matmul reduces every output element in
    /// a fixed order independent of batch size, `fd_tensor::mean_rows`
    /// replays the tape's mean, and all remaining ops are elementwise.
    /// The three HFLU sweeps and the three GDU updates of a round are
    /// independent, so both fan out across `FD_THREADS`.
    pub fn forward_states_rounds<'a>(
        &self,
        config: &FakeDetectorConfig,
        adj: &impl Adjacency,
        inputs: impl Fn(usize) -> HfluInput<'a> + Sync,
    ) -> Vec<[Matrix; 3]> {
        use fd_tensor::parallel::par_map;
        let counts = adj.counts();
        let n_nodes: usize = counts.iter().sum();
        let hidden = config.gdu_hidden;

        let feat_work = n_nodes * config.embed_dim * config.gru_hidden;
        let feats: [Matrix; 3] =
            par_map(3, feat_work, |slot| self.hflu[slot].encode(&self.params, inputs(slot)))
                .try_into()
                .expect("par_map returns one result per slot");

        let zeros: [Matrix; 3] = counts.map(|n| Matrix::zeros(n, hidden));
        let round_work = n_nodes * hidden * hidden;
        let rounds = config.diffusion_rounds.max(1);
        let mut history: Vec<[Matrix; 3]> = Vec::with_capacity(rounds);
        for _round in 0..rounds {
            let states: &[Matrix; 3] = history.last().unwrap_or(&zeros);
            let next: [Matrix; 3] = par_map(3, round_work, |slot| {
                let n = counts[slot];
                let mut t_in = Matrix::zeros(n, hidden);
                let z = if !config.use_diffusion {
                    Matrix::zeros(n, hidden)
                } else if slot == 0 {
                    for a in 0..n {
                        if let Some(u) = adj.author_of(a) {
                            t_in.row_mut(a).copy_from_slice(states[1].row(u));
                        }
                    }
                    fd_tensor::mean_rows(&states[2], n, |a| adj.subjects_of_article(a))
                } else if slot == 1 {
                    fd_tensor::mean_rows(&states[0], n, |u| adj.articles_of_creator(u))
                } else {
                    fd_tensor::mean_rows(&states[0], n, |s| adj.articles_of_subject(s))
                };
                let gdu = &self.gdu[slot];
                gdu.forward_matrix(&self.params, &feats[slot], &z, &t_in, config.use_gates)
            })
            .try_into()
            .expect("par_map returns one result per slot");
            history.push(next);
        }
        history
    }
}

/// The FakeDetector model (configuration only; parameters are built
/// fresh inside each `fit` call, making runs independent and
/// deterministic in the context seed).
#[derive(Debug, Clone, Default)]
pub struct FakeDetector {
    /// Hyper-parameters and ablation switches.
    pub config: FakeDetectorConfig,
}

impl FakeDetector {
    /// A model with the given configuration.
    pub fn new(config: FakeDetectorConfig) -> Self {
        Self { config }
    }

    /// Trains the deep diffusive network on the context's train sets and
    /// returns the trained model (weights + diagnostics), usable for
    /// transductive prediction, inductive new-article scoring and
    /// (de)serialisation.
    ///
    /// ```
    /// use fd_core::{FakeDetector, FakeDetectorConfig};
    /// # use fd_data::{generate, CvSplits, ExplicitFeatures, GeneratorConfig,
    /// #               ExperimentContext, LabelMode, TokenizedCorpus, TrainSets};
    /// # use rand::{rngs::StdRng, SeedableRng};
    /// # let corpus = generate(&GeneratorConfig::politifact().scaled(0.008), 7);
    /// # let tokenized = TokenizedCorpus::build(&corpus, 8, 1500);
    /// # let mut rng = StdRng::seed_from_u64(1);
    /// # let train = TrainSets {
    /// #     articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
    /// #     creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
    /// #     subjects: CvSplits::new(corpus.subjects.len(), 6, &mut rng).fold(0).0,
    /// # };
    /// # let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, 20);
    /// # let ctx = ExperimentContext {
    /// #     corpus: &corpus, tokenized: &tokenized, explicit: &explicit,
    /// #     train: &train, mode: LabelMode::Binary, seed: 1,
    /// # };
    /// let config = FakeDetectorConfig { epochs: 1, ..FakeDetectorConfig::default() };
    /// let trained = FakeDetector::new(config).fit(&ctx);
    /// assert_eq!(trained.report().losses.len(), 1);
    /// let predictions = trained.predict(&ctx);
    /// assert_eq!(predictions.articles.len(), ctx.corpus.articles.len());
    /// ```
    pub fn fit(&self, ctx: &ExperimentContext<'_>) -> TrainedFakeDetector {
        self.fit_with(ctx, &FitOptions::default())
            .expect("fit without checkpointing cannot fail")
    }

    /// [`FakeDetector::fit`] with durability options: periodic
    /// crash-safe checkpoints, resume from the newest valid checkpoint,
    /// and (with or without a checkpoint directory) a divergence guard
    /// that rolls training back to the last good snapshot with a halved
    /// learning rate when an epoch produces a non-finite loss or
    /// gradient norm, instead of letting NaNs poison the weights.
    ///
    /// **Bitwise-resume invariant**: a run killed after any durable
    /// checkpoint and restarted with [`FitOptions::resume`] finishes
    /// with weights bit-identical to the uninterrupted run. Everything
    /// the epoch loop depends on is either deterministic in
    /// `(config, seed)` — network init, validation split, forward and
    /// backward order — or captured in the checkpoint: weights, Adam
    /// moments and step, loss history, early-stopping state, and
    /// learning-rate halvings.
    ///
    /// Fails on checkpoint I/O errors, on a resume against an
    /// incompatible checkpoint (different configuration, dimensions or
    /// seed), or when every file in the checkpoint directory is
    /// corrupt.
    pub fn fit_with(
        &self,
        ctx: &ExperimentContext<'_>,
        options: &FitOptions,
    ) -> Result<TrainedFakeDetector, String> {
        // A sampled fit trains at its sampled depth, and its model then
        // predicts at that depth.
        let mut cfg = self.config.clone();
        if let TrainMode::Sampled { rounds, .. } = cfg.train_mode {
            cfg.diffusion_rounds = rounds;
        }
        // fit runs a handful of times per process, so registry lookups
        // here are off the hot path; the epoch loop reuses the handles.
        let fit_us = fd_obs::histogram("train.fit_us", &fd_obs::exponential_buckets(1e3, 4.0, 10));
        let epoch_us =
            fd_obs::histogram("train.epoch_us", &fd_obs::exponential_buckets(100.0, 4.0, 10));
        let epochs_run = fd_obs::counter("train.epochs");
        let _fit_span = fd_obs::span_timed("fit", fit_us);
        // Per-phase profiling: each epoch phase gets a histogram, and —
        // when FD_TRACE is on — a span nested train.fit → train.epoch →
        // phase, so `fdctl trace summarize` can attribute epoch time.
        let phase_bounds = fd_obs::exponential_buckets(50.0, 4.0, 10);
        let forward_us = fd_obs::histogram("train.phase.forward_us", &phase_bounds);
        let backward_us = fd_obs::histogram("train.phase.backward_us", &phase_bounds);
        let clip_us = fd_obs::histogram("train.phase.clip_us", &phase_bounds);
        let optimizer_us = fd_obs::histogram("train.phase.optimizer_us", &phase_bounds);
        let validate_us = fd_obs::histogram("train.phase.validate_us", &phase_bounds);
        let checkpoint_us = fd_obs::histogram("train.phase.checkpoint_us", &phase_bounds);
        // Sampled-mode phase: subgraph gathering. Registered alongside
        // the other phases (it simply stays empty in full-graph runs).
        let sample_us = fd_obs::histogram("train.phase.sample_us", &phase_bounds);
        let fit_trace = fd_obs::TraceCtx::root();
        // Guard, not manual record: the fit span closes on every return
        // path, including checkpoint-error early exits.
        let fit_trace_span = fit_trace.span("train.fit");
        let dims = NetworkDims {
            vocab: ctx.tokenized.vocab.id_space(),
            explicit_dim: ctx.explicit.dim,
            n_classes: ctx.n_classes(),
        };
        let seed = ctx.seed ^ 0xfa_ce_de_7e;
        let mut network = Network::build(&cfg, dims, Params::new(), seed);
        let mut optimizer = Adam::new(cfg.lr);
        let mut report = TrainReport::default();

        let fingerprint = checkpoint::config_fingerprint(&self.config);
        let store = match &options.checkpoint_dir {
            Some(dir) => Some(
                fd_ckpt::CheckpointStore::open(dir, options.checkpoint_keep.max(2)).map_err(
                    |e| format!("cannot open checkpoint directory {}: {e}", dir.display()),
                )?,
            ),
            None => None,
        };

        // Hold out a slice of the training entities for early stopping.
        // Items are `(slot, corpus index, target class)`.
        let mut items: Vec<(usize, usize, usize)> = ctx
            .train_items()
            .into_iter()
            .map(|(ty, idx, target)| (ty.slot(), idx, target))
            .collect();
        let mut split_rng = StdRng::seed_from_u64(seed ^ VAL_SPLIT_MIX);
        items.shuffle(&mut split_rng);
        let n_val = if cfg.validation_fraction > 0.0 {
            ((items.len() as f64 * cfg.validation_fraction) as usize).min(items.len() - 1)
        } else {
            0
        };
        let (val_items, fit_items) = items.split_at(n_val);
        assert!(!fit_items.is_empty(), "FakeDetector: empty training set");

        // Full-graph epochs are one step over the whole corpus graph,
        // whose neighbour lists are built once here; validation falls out
        // of the same forward pass. Sampled epochs use a deterministic
        // sampler (a pure function of seed/salt/node, so epochs replay
        // across resumes and thread counts) and validate on fixed
        // batch-sized chunks, each with its own subgraph drawn at a fixed
        // salt: chunking bounds validation memory as minibatching bounds
        // training memory, and the fixed salt keeps the accuracy curve a
        // function of the weights alone.
        let graph = &ctx.corpus.graph;
        let mut val_chunks: Vec<_> = Vec::new();
        let batching = match cfg.train_mode {
            TrainMode::Full => Batching::Whole {
                sub: Subgraph::whole(graph),
                items: fit_items.to_vec(),
                val_items: val_items.to_vec(),
            },
            TrainMode::Sampled { batch_size, fanout, rounds } => {
                assert!(batch_size > 0, "TrainMode::Sampled: batch_size must be > 0");
                assert!(rounds > 0, "TrainMode::Sampled: rounds must be > 0");
                let sampler = NeighborSampler::new(seed ^ SAMPLER_MIX, [fanout; 3]);
                val_chunks = val_items
                    .chunks(batch_size)
                    .map(|chunk| sample_batch(graph, &sampler, chunk, rounds, VAL_SAMPLE_SALT))
                    .collect();
                let counts = fd_obs::exponential_buckets(16.0, 4.0, 10);
                Batching::Sampled {
                    batch_size,
                    hops: rounds,
                    sampler,
                    hists: [
                        fd_obs::histogram(
                            "train.sampler.fanout",
                            &fd_obs::exponential_buckets(1.0, 2.0, 10),
                        ),
                        fd_obs::histogram("train.sampler.subgraph_nodes", &counts),
                        fd_obs::histogram("train.sampler.subgraph_edges", &counts),
                    ],
                }
            }
        };

        let mut early = EarlyStop::default();
        let mut lr_halvings: u32 = 0;
        let mut start_epoch = 0usize;
        if options.resume {
            if let Some(store) = &store {
                let loaded =
                    store.load_latest().map_err(|e| format!("cannot resume: {e}"))?;
                if let Some(loaded) = loaded {
                    let at = |e: String| format!("cannot resume from {}: {e}", loaded.path.display());
                    for (path, why) in &loaded.skipped {
                        fd_obs::event(
                            fd_obs::Level::Error,
                            "ckpt.skipped_corrupt",
                            &[
                                ("path", path.display().to_string().into()),
                                ("error", why.clone().into()),
                            ],
                        );
                    }
                    let ckpt = &loaded.checkpoint;
                    checkpoint::verify_compatible(ckpt, dims, seed, &fingerprint).map_err(&at)?;
                    checkpoint::restore_params(&mut network.params, &ckpt.params).map_err(&at)?;
                    let state =
                        checkpoint::adam_from_entries(ckpt.opt_step, &ckpt.opt_m, &ckpt.opt_v)
                            .map_err(&at)?;
                    optimizer.restore_state(&network.params, &state).map_err(&at)?;
                    optimizer.set_lr(ckpt.lr as f32);
                    lr_halvings = ckpt.lr_halvings as u32;
                    report.losses = ckpt.losses.iter().map(|&l| l as f32).collect();
                    report.grad_norms = ckpt.grad_norms.iter().map(|&g| g as f32).collect();
                    // Wall-clock history is not durable state; replayed
                    // epochs read as 0 ms.
                    report.epoch_ms = vec![0.0; report.losses.len()];
                    early.since_best = ckpt.since_best as usize;
                    if let Some(acc) = ckpt.best_acc {
                        let mut best_params = network.params.clone();
                        checkpoint::restore_params(&mut best_params, &ckpt.best_params)
                            .map_err(&at)?;
                        early.best = Some((acc, best_params));
                    }
                    start_epoch = ckpt.epoch as usize;
                    fd_obs::counter("ckpt.resumes").inc();
                    fd_obs::event(
                        fd_obs::Level::Info,
                        "ckpt.resumed",
                        &[
                            ("path", loaded.path.display().to_string().into()),
                            ("epoch", start_epoch.into()),
                            ("skipped_corrupt", loaded.skipped.len().into()),
                        ],
                    );
                }
            }
        }
        // The divergence guard's rollback target. Captured at checkpoint
        // cadence (or every GUARD_EVERY epochs without a store), never
        // every epoch — see `GuardSnapshot`.
        let mut guard = GuardSnapshot::capture(start_epoch, &network, &optimizer, &early, &report);
        // One arena for every step: after the first epoch its capacity
        // settles at the largest step's node count, so later resets
        // neither reallocate nor re-zero.
        let tape = Tape::with_capacity(1 << 10);
        let rounds = cfg.diffusion_rounds;
        let mut epoch = start_epoch;
        while epoch < cfg.epochs {
            // Early stopping, checked at the loop head so a run resumed
            // from its final checkpoint does not train an extra epoch.
            if n_val > 0 && early.since_best >= cfg.patience {
                break;
            }
            let epoch_start = std::time::Instant::now();
            let _epoch_span = fd_obs::span("epoch");
            let epoch_trace = fit_trace_span.ctx().child();
            let epoch_start_us = fd_obs::trace::now_us();
            let mut phase = PhaseTimer::start(&epoch_trace);
            let mut epoch_val_acc: Option<f64> = None;
            // The epoch's loss and per-type loss split sum over its
            // steps, and its norm is the largest step's. The split is
            // recomputed from the cached logits only when someone is
            // listening.
            let mut loss_value = 0.0f32;
            let mut norm = 0.0f32;
            let mut slot_losses = fd_obs::enabled(fd_obs::Level::Info).then_some([0.0f64; 3]);
            let mut diverged = false;
            for step in batching.steps(graph, fit_items, seed, epoch) {
                if step.sampled {
                    phase.lap("train.sample", sample_us);
                }
                tape.reset();
                let binding = Binding::new(&tape, &network.params);
                // Rows address the step's own node set, and the L2 term
                // is scaled by the step's share of the fit items, so an
                // epoch applies one full α·L2's worth of decay.
                let states =
                    network.forward_states_subgraph(&cfg, &binding, ctx, &step.sub, rounds);
                let reg_scale =
                    cfg.reg_alpha * (step.items.len() as f32 / fit_items.len() as f32);
                let (loss, ordered) =
                    step_loss(&network, &binding, &states, &step.items, reg_scale);
                if let Some(sums) = &mut slot_losses {
                    let probs = tape.with_value(ordered, fd_tensor::softmax_rows);
                    for (k, &(slot, _, target)) in step.items.iter().enumerate() {
                        sums[slot] += f64::from(-probs[(k, target)].max(1e-12).ln());
                    }
                }
                let val_states = step.validates.map(|items| (states.map(|s| tape.value(s)), items));
                phase.lap("train.forward", forward_us);

                tape.backward(loss);
                let mut grads = binding.grads();
                phase.lap("train.backward", backward_us);
                let step_norm = clip_global_norm(&mut grads, cfg.clip);
                phase.lap("train.clip", clip_us);
                let step_loss_value = tape.with_value(loss, |m| m[(0, 0)]);
                drop(binding);
                // Divergence guard: a non-finite loss or gradient norm
                // means this step (and possibly a few before it) blew up.
                // Clipping deliberately leaves non-finite gradients
                // untouched (see `clip_global_norm`), so applying them
                // would poison every weight.
                if !step_loss_value.is_finite() || !step_norm.is_finite() {
                    diverged = true;
                    break;
                }
                if let Some(states_and_items) = val_states {
                    phase.reset();
                    let acc = validation_accuracy(&network, [states_and_items]);
                    epoch_val_acc = Some(acc);
                    early.observe(acc, &network.params);
                    phase.lap("train.validate", validate_us);
                }
                phase.reset();
                (step.update)(&mut optimizer, &mut network.params, &grads);
                phase.lap("train.optimizer", optimizer_us);
                loss_value += step_loss_value;
                norm = norm.max(step_norm);
            }
            // Roll back to the last snapshot and retry from there with a
            // halved learning rate.
            if diverged {
                if !rollback_divergence(
                    &mut network,
                    &mut optimizer,
                    &guard,
                    &mut early,
                    &mut report,
                    &mut epoch,
                    &mut lr_halvings,
                ) {
                    break;
                }
                continue;
            }

            // Sampled validation over the fixed chunks measures the
            // *post*-update weights: there is no epoch-wide forward pass
            // to read it off.
            if !val_chunks.is_empty() {
                phase.reset();
                let acc = validation_accuracy(
                    &network,
                    val_chunks.iter().map(|(sub, items)| {
                        tape.reset();
                        let binding = Binding::new(&tape, &network.params);
                        let states =
                            network.forward_states_subgraph(&cfg, &binding, ctx, sub, rounds);
                        (states.map(|s| tape.value(s)), items.as_slice())
                    }),
                );
                epoch_val_acc = Some(acc);
                early.observe(acc, &network.params);
                phase.lap("train.validate", validate_us);
            }
            report.losses.push(loss_value);
            report.grad_norms.push(norm);

            epochs_run.inc();
            let epoch_elapsed = epoch_start.elapsed().as_secs_f64();
            report.epoch_ms.push(epoch_elapsed * 1e3);
            epoch_us.record(epoch_elapsed * 1e6);
            fd_obs::gauge("train.loss").set(f64::from(loss_value));
            fd_obs::gauge("train.grad_norm").set(f64::from(norm));
            fd_obs::gauge("train.lr").set(f64::from(optimizer.lr()));
            if fd_obs::enabled(fd_obs::Level::Info) {
                let mut fields: Vec<(&str, fd_obs::Value)> = vec![
                    ("epoch", epoch.into()),
                    ("loss", loss_value.into()),
                ];
                if let Some([la, lc, ls]) = slot_losses {
                    fields.push(("loss_articles", la.into()));
                    fields.push(("loss_creators", lc.into()));
                    fields.push(("loss_subjects", ls.into()));
                }
                fields.push(("grad_norm", norm.into()));
                fields.push(("lr", optimizer.lr().into()));
                fields.push(("epoch_ms", (epoch_elapsed * 1e3).into()));
                if let Some(acc) = epoch_val_acc {
                    fields.push(("val_acc", acc.into()));
                }
                fd_obs::event(fd_obs::Level::Info, "train.epoch", &fields);
            }

            epoch += 1;
            // Durable checkpoint at the configured cadence, and always
            // at the final epoch (count exhausted or early stop) so a
            // finished run leaves its end state on disk.
            let stopping =
                epoch == cfg.epochs || (n_val > 0 && early.since_best >= cfg.patience);
            if let Some(store) = &store {
                if epoch.is_multiple_of(options.every()) || stopping {
                    phase.reset();
                    guard = GuardSnapshot::capture(epoch, &network, &optimizer, &early, &report);
                    save_checkpoint(
                        store,
                        &guard,
                        &report,
                        optimizer.lr(),
                        lr_halvings,
                        seed,
                        dims,
                        &fingerprint,
                    )?;
                    phase.lap("train.checkpoint", checkpoint_us);
                    // Deterministic crash injection for recovery tests:
                    // dies *after* the durable save, exactly where a real
                    // SIGKILL would leave a resumable run.
                    if fd_ckpt::fault::kill_after_ckpt(epoch as u64) {
                        std::process::abort();
                    }
                }
            } else if epoch.is_multiple_of(GUARD_EVERY) {
                guard = GuardSnapshot::capture(epoch, &network, &optimizer, &early, &report);
            }
            if epoch_trace.sampled {
                epoch_trace.record(
                    "train.epoch",
                    epoch_start_us,
                    fd_obs::trace::now_us().saturating_sub(epoch_start_us),
                );
            }
        }
        if let Some((_, best_params)) = early.best {
            network.params = best_params;
        }

        Ok(TrainedFakeDetector::from_parts(cfg, dims, seed, network, report))
    }

    /// Trains and predicts, also returning the loss curve — used by the
    /// examples and the ablation harness; `fit_predict` discards it.
    pub fn fit_predict_with_report(
        &self,
        ctx: &ExperimentContext<'_>,
    ) -> (Predictions, TrainReport) {
        let trained = self.fit(ctx);
        let predictions = trained.predict(ctx);
        let report = trained.report().clone();
        (predictions, report)
    }
}

impl CredibilityModel for FakeDetector {
    fn name(&self) -> &'static str {
        "FakeDetector"
    }

    fn fit_predict(&self, ctx: &ExperimentContext<'_>) -> Predictions {
        self.fit_predict_with_report(ctx).0
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use fd_data::{
        generate, CvSplits, ExplicitFeatures, GeneratorConfig, LabelMode, TokenizedCorpus,
        TrainSets,
    };
    use rand::{rngs::StdRng, SeedableRng};

    struct Fixture {
        corpus: fd_data::Corpus,
        tokenized: TokenizedCorpus,
        explicit: ExplicitFeatures,
        train: TrainSets,
    }

    fn fixture() -> Fixture {
        let corpus = generate(&GeneratorConfig::politifact().scaled(0.01), 7);
        let tokenized = TokenizedCorpus::build(&corpus, 12, 3000);
        let mut rng = StdRng::seed_from_u64(6);
        let train = TrainSets {
            articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
            creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
            subjects: CvSplits::new(corpus.subjects.len(), 6, &mut rng).fold(0).0,
        };
        let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, 40);
        Fixture { corpus, tokenized, explicit, train }
    }

    fn make_ctx(f: &Fixture, seed: u64) -> ExperimentContext<'_> {
        ExperimentContext {
            corpus: &f.corpus,
            tokenized: &f.tokenized,
            explicit: &f.explicit,
            train: &f.train,
            mode: LabelMode::Binary,
            seed,
        }
    }

    fn dims_of(ctx: &ExperimentContext<'_>) -> NetworkDims {
        NetworkDims {
            vocab: ctx.tokenized.vocab.id_space(),
            explicit_dim: ctx.explicit.dim,
            n_classes: ctx.n_classes(),
        }
    }

    /// One training-objective evaluation (forward + backward, no update)
    /// over the unshuffled train items: the whole-graph tape forward
    /// with the shared step loss, or the per-node oracle. Returns the
    /// scalar loss and the gradients.
    fn epoch_grads(
        config: &FakeDetectorConfig,
        ctx: &ExperimentContext<'_>,
        per_node: bool,
    ) -> (f32, Vec<(fd_nn::ParamId, Matrix)>) {
        let network = Network::build(config, dims_of(ctx), Params::new(), 21);
        let tape = Tape::new();
        let binding = Binding::new(&tape, &network.params);
        let items = ctx.train_items();
        let loss = if per_node {
            oracle::loss(&network, config, &binding, ctx, &items)
        } else {
            let whole = Subgraph::whole(&ctx.corpus.graph);
            let states = network.forward_states_subgraph(
                config,
                &binding,
                ctx,
                &whole,
                config.diffusion_rounds,
            );
            let steps: Vec<(usize, usize, usize)> =
                items.iter().map(|&(ty, idx, target)| (ty.slot(), idx, target)).collect();
            step_loss(&network, &binding, &states, &steps, config.reg_alpha).0
        };
        tape.backward(loss);
        let loss_value = tape.with_value(loss, |m| m[(0, 0)]);
        (loss_value, binding.grads())
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: width");
        for (j, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}, dim {j}: {x} vs {y}");
        }
    }

    fn assert_grads_close(
        a: &[(fd_nn::ParamId, Matrix)],
        b: &[(fd_nn::ParamId, Matrix)],
        rtol: f32,
        atol: f32,
    ) {
        assert_eq!(a.len(), b.len(), "gradient count mismatch");
        for ((id_a, ga), (id_b, gb)) in a.iter().zip(b) {
            assert_eq!(id_a, id_b);
            assert_eq!(ga.shape(), gb.shape());
            for (r, (x, y)) in ga.as_slice().iter().zip(gb.as_slice()).enumerate() {
                let tol = atol + rtol * x.abs().max(y.abs());
                assert!(
                    (x - y).abs() <= tol,
                    "grad mismatch for param {} at flat index {r}: {x} vs {y} (tol {tol})",
                    id_a.index()
                );
            }
        }
    }

    /// The batched epoch's loss is bit-equal to the per-node oracle's,
    /// and every parameter gradient agrees within floating-point
    /// reassociation tolerance.
    #[test]
    fn batched_epoch_matches_per_node_loss_and_gradients() {
        let f = fixture();
        let ctx = make_ctx(&f, 13);
        let config = FakeDetectorConfig::default();
        let (loss_ref, grads_ref) = epoch_grads(&config, &ctx, true);
        let (loss_bat, grads_bat) = epoch_grads(&config, &ctx, false);
        assert_eq!(
            loss_ref.to_bits(),
            loss_bat.to_bits(),
            "loss must be bit-comparable: {loss_ref} vs {loss_bat}"
        );
        assert_grads_close(&grads_bat, &grads_ref, 1e-4, 1e-6);
    }

    /// The batched epoch's gradients must not depend on the thread
    /// count: `FD_THREADS` changes wall-clock only.
    #[test]
    fn batched_gradients_are_bitwise_thread_invariant() {
        let f = fixture();
        let ctx = make_ctx(&f, 13);
        let config = FakeDetectorConfig::default();
        let run = |threads| {
            fd_tensor::parallel::with_thread_count(threads, || epoch_grads(&config, &ctx, false))
        };
        let (loss_1, grads_1) = run(1);
        let (loss_4, grads_4) = run(4);
        assert_eq!(loss_1.to_bits(), loss_4.to_bits());
        for ((id_a, ga), (id_b, gb)) in grads_1.iter().zip(&grads_4) {
            assert_eq!(id_a, id_b);
            assert_eq!(ga.as_slice(), gb.as_slice(), "param {} grads", id_a.index());
        }
    }

    /// Both forwards — the tape forward over the whole graph and the
    /// tape-free forward — reproduce the per-node oracle's states
    /// bitwise, for the full model and every ablation.
    #[test]
    fn both_forwards_match_the_per_node_oracle_bitwise() {
        let f = fixture();
        let ctx = make_ctx(&f, 13);
        let graph = &ctx.corpus.graph;
        let counts = [graph.n_articles(), graph.n_creators(), graph.n_subjects()];
        let whole = Subgraph::whole(graph);
        let base = FakeDetectorConfig::default();
        let configs = [
            base.clone(),
            FakeDetectorConfig { use_latent: false, ..base.clone() },
            FakeDetectorConfig { use_explicit: false, ..base.clone() },
            FakeDetectorConfig { use_gates: false, ..base.clone() },
            FakeDetectorConfig { use_diffusion: false, ..base.clone() },
            FakeDetectorConfig { diffusion_rounds: 3, ..base },
        ];
        for (c, config) in configs.iter().enumerate() {
            let network = Network::build(config, dims_of(&ctx), Params::new(), 21);
            let tape = Tape::with_capacity(1 << 16);
            let binding = Binding::new(&tape, &network.params);
            let per_node = oracle::states(&network, config, &binding, &ctx);
            let taped = network.forward_states_subgraph(
                config,
                &binding,
                &ctx,
                &whole,
                config.diffusion_rounds,
            );
            let free = network
                .forward_states_rounds(config, graph, |slot| {
                    HfluInput::gather(&ctx, NodeType::ALL[slot], 0..counts[slot])
                })
                .pop()
                .expect("at least one round");
            for slot in 0..3 {
                let taped = tape.value(taped[slot]);
                assert_eq!(taped.rows(), per_node[slot].len());
                assert_bits_eq(taped.as_slice(), free[slot].as_slice(), &format!("config {c} slot {slot}"));
                for (i, &var) in per_node[slot].iter().enumerate() {
                    tape.with_value(var, |m| {
                        assert_bits_eq(m.row(0), taped.row(i), &format!("config {c} slot {slot} node {i}"));
                    });
                }
            }
        }
    }

    // Parity must hold across ablations, graph shapes and seeds —
    // including graphs where some articles have no subjects/author and
    // the gate/diffusion switches reroute the GDU inputs.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

        #[test]
        fn batched_parity_across_seeds_and_ablations(
            seed in 0u64..50,
            use_diffusion in proptest::prelude::any::<bool>(),
            use_gates in proptest::prelude::any::<bool>(),
            rounds in 1usize..3,
        ) {
            let corpus = generate(&GeneratorConfig::politifact().scaled(0.008), seed);
            let tokenized = TokenizedCorpus::build(&corpus, 10, 2000);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let train = TrainSets {
                articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
                creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
                subjects: CvSplits::new(corpus.subjects.len(), 6, &mut rng).fold(0).0,
            };
            let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, 30);
            let f = Fixture { corpus, tokenized, explicit, train };
            let ctx = make_ctx(&f, seed ^ 0xc0ffee);
            let config = FakeDetectorConfig {
                use_diffusion,
                use_gates,
                diffusion_rounds: rounds,
                ..FakeDetectorConfig::default()
            };
            let (loss_ref, grads_ref) = epoch_grads(&config, &ctx, true);
            let (loss_bat, grads_bat) = epoch_grads(&config, &ctx, false);
            proptest::prop_assert_eq!(
                loss_ref.to_bits(),
                loss_bat.to_bits(),
                "loss {} vs {} (seed {}, diffusion {}, gates {}, rounds {})",
                loss_ref,
                loss_bat,
                seed,
                use_diffusion,
                use_gates,
                rounds
            );
            assert_grads_close(&grads_bat, &grads_ref, 1e-4, 1e-6);
        }
    }

    /// A sampled subgraph that covers the whole graph (every node seeded,
    /// fanout unbounded) must be indistinguishable from the whole-graph
    /// forward: the compacted index space degenerates to the identity
    /// and every sampled adjacency list is the complete CSR list.
    #[test]
    fn full_coverage_sample_matches_whole_graph_forward_bitwise() {
        let f = fixture();
        let ctx = make_ctx(&f, 13);
        let config = FakeDetectorConfig::default();
        let network = Network::build(&config, dims_of(&ctx), Params::new(), 21);

        // Seed every node of every type in index order: interning then
        // maps each global index to itself.
        let mut seeds: Vec<(NodeType, usize)> = Vec::new();
        seeds.extend((0..f.corpus.articles.len()).map(|i| (NodeType::Article, i)));
        seeds.extend((0..f.corpus.creators.len()).map(|u| (NodeType::Creator, u)));
        seeds.extend((0..f.corpus.subjects.len()).map(|s| (NodeType::Subject, s)));
        let sampler = NeighborSampler::new(99, [usize::MAX; 3]);
        let sub = sample_subgraph(&f.corpus.graph, &sampler, &seeds, 0, 3);
        let whole = Subgraph::whole(&f.corpus.graph);
        assert_eq!(sub.nodes, whole.nodes, "compaction");

        let tape = Tape::with_capacity(1 << 16);
        let binding = Binding::new(&tape, &network.params);
        let rounds = config.diffusion_rounds;
        let expected = network.forward_states_subgraph(&config, &binding, &ctx, &whole, rounds);
        let sampled = network.forward_states_subgraph(&config, &binding, &ctx, &sub, rounds);
        for slot in 0..3 {
            let (e, s) = (tape.value(expected[slot]), tape.value(sampled[slot]));
            assert_eq!(e.shape(), s.shape(), "slot {slot} shape");
            assert_bits_eq(e.as_slice(), s.as_slice(), &format!("slot {slot}"));
        }
    }
}
