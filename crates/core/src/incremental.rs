//! Incremental diffusion: delta state updates for online ingestion.
//!
//! The serving tier precomputes the per-round diffused GDU states of a
//! frozen corpus ([`TrainedFakeDetector::diffused_states_rounds`]).
//! When new nodes are attached at runtime (a [`GraphOverlay`] over the
//! frozen News-HSN), recomputing the whole graph would cost O(corpus)
//! per ingest. Each ingest instead takes the previous generation's
//! [`StateOverlay`] and recomputes only the rows **its own batch**
//! changes; every other row is carried forward unchanged.
//!
//! **Which rows a batch changes.** Diffusion starts from zero states,
//! so a node's *round-1* state is `GDU(x, 0, 0)` — a function of its
//! own features only (the neighbour mean of zero rows is zero whatever
//! the adjacency). A row at round `r ≥ 2` changes only if its neighbour
//! list changed or a neighbour's round `r − 1` row did. Only new
//! articles introduce edges, so a batch recomputes:
//!
//! * its new nodes, at every round (each is HFLU/GRU-encoded once and
//!   its encoded row is kept for later rounds and later batches);
//! * from round 2, the existing creators and subjects its articles
//!   cite — base or ingested earlier — whose neighbour lists grew;
//! * from round 3, one more hop of readers of the previous round's
//!   recomputed existing rows per round.
//!
//! With the default `diffusion_rounds = 2` that is the new nodes plus
//! the nodes they cite — O(payload × degree), independent of corpus
//! size and of how many ingests came before.
//!
//! **Delta update rule.** For each round `r` and each recomputed node
//! `v` of slot `τ`:
//!
//! ```text
//! z_v  = mean_{w ∈ N_z(v)}  view_{r−1}[w]      (combined list: base ++ extras)
//! t_v  = view_{r−1}[author(v)]                 (articles only, else 0)
//! s_v^r = GDU_τ(x_v, z_v, t_v)
//! ```
//!
//! where `view_{r−1}` resolves a row through this generation's round
//! `r − 1` [`RoundDelta`] (ingested or patched row → base matrix). The
//! combined neighbour lists concatenate the base CSR slice with the
//! overlay extras in ingestion order — the same insertion order a
//! from-scratch rebuild would use — and the mean replays the exact
//! `fd_tensor::mean_rows` reduction, so every recomputed row is
//! bit-identical to [`TrainedFakeDetector::extended_states_rounds`],
//! the honest O(corpus) recompute over the extended graph with the
//! *frozen* feature pipeline. A carried-forward row is bit-identical
//! too, by induction over ingests: its inputs did not change, so
//! neither did its value. (A true retrain re-tokenizes and refits —
//! that is the slow path: checkpoint retrain + SIGHUP swap.)
//!
//! **Sharing.** Every row store is a [`Chunked`] array, so a new
//! generation clones its parent in O(1) and copies only the chunks
//! holding rows it rewrites; older generations keep serving their own
//! states untouched.
//!
//! **Dry runs.** Inductive scoring ([`TrainedFakeDetector::score_batch`])
//! runs the same loop over such a clone with the requests attached, for
//! the requests' final-round rows only: each earlier round computes just
//! the changed rows a later computed row reads. The clone is dropped.

use crate::subgraph::Subgraph;
use crate::trained::{ScoreRequest, TrainedFakeDetector};
use crate::HfluInput;
use fd_data::ExperimentContext;
use fd_graph::{Chunked, GraphOverlay, HetGraph, NodeType};
use fd_tensor::Matrix;
use fd_text::{encode_sequence, Tokenizer};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One stored state or feature row.
type Row = Arc<[f32]>;

/// One diffusion round's rows that differ from the base history: the
/// base rows some ingest recomputed and the rows of every ingested
/// node, keyed by combined index per slot.
#[derive(Debug, Clone, Default)]
pub struct RoundDelta {
    rows: [Chunked<Row>; 3],
}

/// The ingested generation's per-round states, as overrides of the base
/// history from [`TrainedFakeDetector::diffused_states_rounds`], plus
/// the HFLU rows of the ingested nodes. Cloning is O(1) (see the module
/// docs on sharing).
#[derive(Debug, Clone)]
pub struct StateOverlay {
    /// Element `r` overrides the base states after round `r + 1`.
    rounds: Vec<RoundDelta>,
    /// HFLU-encoded rows of the ingested nodes per slot; entry `k` is
    /// ingested node `k` of the slot.
    encoded: [Chunked<Row>; 3],
}

impl StateOverlay {
    /// The generation before any ingest: `rounds` empty deltas.
    pub fn new(rounds: usize) -> Self {
        Self { rounds: vec![RoundDelta::default(); rounds], encoded: Default::default() }
    }

    /// One delta per diffusion round, aligned with the base history.
    pub fn rounds(&self) -> &[RoundDelta] {
        &self.rounds
    }

    /// The final round's delta — what serving reads states through.
    pub fn final_round(&self) -> &RoundDelta {
        self.rounds.last().expect("at least one diffusion round")
    }

    /// Ingested node counts per slot, `[articles, creators, subjects]`.
    fn appended(&self) -> [usize; 3] {
        std::array::from_fn(|slot| self.encoded[slot].len())
    }
}

/// What one [`TrainedFakeDetector::delta_states`] step recomputed. Every
/// figure is the batch's own: none accumulates across ingests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaCost {
    /// Largest number of base rows any single round recomputed — the
    /// affected-neighbourhood size the batch paid for.
    pub max_affected_base: usize,
    /// Base rows recomputed, summed over rounds.
    pub base_rows: usize,
    /// Ingested-node rows recomputed, summed over rounds: the batch's
    /// own nodes plus, from round 3, earlier-ingested readers.
    pub appended_rows: usize,
    /// Nodes run through HFLU (and so the GRU encoder).
    pub encoded: usize,
}

/// A read-only resolver for "current" state rows: base matrices
/// overlaid with one round's [`RoundDelta`]. Row lookups
/// check the delta first (ingested nodes and recomputed base rows) and
/// fall through to the base matrix.
#[derive(Clone, Copy)]
pub struct StateView<'a> {
    base: &'a [Matrix; 3],
    delta: &'a RoundDelta,
}

impl<'a> StateView<'a> {
    /// A view over base matrices patched and extended by `delta`.
    pub fn with_delta(base: &'a [Matrix; 3], delta: &'a RoundDelta) -> Self {
        Self { base, delta }
    }

    /// Node counts visible through the view, `[articles, creators,
    /// subjects]` (base + appended). Ingested rows sit right after the
    /// base rows, so the delta's highest index bounds the count.
    pub fn counts(&self) -> [usize; 3] {
        std::array::from_fn(|slot| {
            self.base[slot].rows().max(self.delta.rows[slot].len())
        })
    }

    /// The state row of combined node `idx` in `slot`.
    ///
    /// # Panics
    /// Panics when `idx` is beyond [`StateView::counts`] for the slot.
    pub fn row(&self, slot: usize, idx: usize) -> &'a [f32] {
        if let Some(row) = self.delta.rows[slot].get(idx) {
            return row;
        }
        assert!(idx < self.base[slot].rows(), "slot {slot} has no row {idx}");
        self.base[slot].row(idx)
    }
}

/// Mean of the listed rows read through `view`, replaying the exact
/// `fd_tensor::mean_rows` arithmetic (copy first, accumulate rest in
/// list order, scale by `1/len`; empty list → zero row) over the
/// concatenation `base_part ++ extra_part`.
fn mean_into(
    view: &StateView<'_>,
    src_slot: usize,
    base_part: &[usize],
    extra_part: &[usize],
    out: &mut [f32],
) {
    let len = base_part.len() + extra_part.len();
    if len == 0 {
        return; // `out` is already the zero row.
    }
    let mut items = base_part.iter().chain(extra_part.iter()).copied();
    let first = items.next().expect("len > 0");
    out.copy_from_slice(view.row(src_slot, first));
    for j in items {
        for (acc, &v) in out.iter_mut().zip(view.row(src_slot, j)) {
            *acc += v;
        }
    }
    let inv = 1.0 / len as f32;
    for acc in out.iter_mut() {
        *acc *= inv;
    }
}

/// Combined article list of creator (`slot == 1`) or subject
/// (`slot == 2`) `idx` as `(base slice, overlay extras)`.
fn articles_of<'a>(
    overlay: &'a GraphOverlay,
    graph: &'a HetGraph,
    slot: usize,
    idx: usize,
) -> (&'a [usize], &'a [usize]) {
    if slot == 1 {
        overlay.articles_of_creator(graph, idx)
    } else {
        overlay.articles_of_subject(graph, idx)
    }
}

/// Adds the neighbours of combined node `i` of `slot` to `out`: an
/// article's author and subjects, a creator's or subject's articles —
/// the rows `i` reads, and the rows that read it (none for a reader).
fn add_neighbours(
    overlay: &GraphOverlay,
    graph: &HetGraph,
    slot: usize,
    i: usize,
    out: &mut [BTreeSet<usize>; 3],
) {
    if slot == 0 {
        out[1].extend(overlay.author_of(graph, i));
        out[2].extend(overlay.subjects_of_article(graph, i).iter().copied());
    } else {
        let (base_part, extra) = articles_of(overlay, graph, slot, i);
        out[0].extend(base_part.iter().chain(extra).copied());
    }
}

/// Checks that `overlay` is anchored to the context's graph and that
/// the feature inputs describe `expected` nodes per slot.
fn check_overlay_inputs(
    ctx: &ExperimentContext<'_>,
    overlay: &GraphOverlay,
    new_explicit: &[Matrix; 3],
    new_sequences: &[Vec<Vec<usize>>; 3],
    expected: [usize; 3],
) -> Result<(), String> {
    let graph = &ctx.corpus.graph;
    let graph_counts = [graph.n_articles(), graph.n_creators(), graph.n_subjects()];
    if overlay.base_counts() != graph_counts {
        return Err(format!(
            "overlay anchored to {:?} nodes but the corpus graph has {graph_counts:?}",
            overlay.base_counts()
        ));
    }
    for slot in 0..3 {
        if new_explicit[slot].rows() != expected[slot]
            || new_sequences[slot].len() != expected[slot]
        {
            return Err(format!(
                "slot {slot}: expected features of {} new nodes but got {} explicit rows / {} sequences",
                expected[slot],
                new_explicit[slot].rows(),
                new_sequences[slot].len()
            ));
        }
    }
    Ok(())
}

impl TrainedFakeDetector {
    /// One incremental diffusion step for an ingested batch: returns the
    /// states of the generation after the batch, recomputing only the
    /// rows the batch changes (see the module docs) and carrying every
    /// other row forward from `prev`, plus what the step recomputed.
    ///
    /// `prev` is the generation before the batch (`None` when nothing
    /// was ingested yet); `overlay` is the graph *after* the batch was
    /// attached; `new_explicit` / `new_sequences` carry the
    /// frozen-pipeline features of the batch's own new nodes, in append
    /// order (see [`featurise_new_nodes`]). `base_rounds` is the
    /// untouched history from
    /// [`TrainedFakeDetector::diffused_states_rounds`]. Every row of the
    /// result is bit-identical to the same row of
    /// [`TrainedFakeDetector::extended_states_rounds`]; the serving
    /// layer documents the looser `≤ 1e-5` score bound so the
    /// implementation keeps the freedom to trade exactness for bounded
    /// work later. Inductive scoring runs the same loop as a dry run
    /// ([`TrainedFakeDetector::score_batch`]).
    pub fn delta_states(
        &self,
        ctx: &ExperimentContext<'_>,
        base_rounds: &[[Matrix; 3]],
        prev: Option<&StateOverlay>,
        overlay: &GraphOverlay,
        new_explicit: &[Matrix; 3],
        new_sequences: &[Vec<Vec<usize>>; 3],
    ) -> Result<(StateOverlay, DeltaCost), String> {
        self.restricted_rounds(ctx, base_rounds, prev, overlay, (new_explicit, new_sequences), None)
    }

    /// Attaches `requests` to a clone of the served graph (creators and
    /// subjects as one-way readers) and runs the restricted loop for
    /// their final-round rows: the throwaway states, each request's
    /// combined index and what the run computed.
    pub(crate) fn dry_run(
        &self,
        ctx: &ExperimentContext<'_>,
        base_rounds: &[[Matrix; 3]],
        served: (&GraphOverlay, Option<&StateOverlay>),
        requests: &[ScoreRequest],
    ) -> Result<(StateOverlay, Vec<usize>, DeltaCost), String> {
        let mut overlay = served.0.clone();
        let mut targets: [Vec<usize>; 3] = Default::default();
        let mut ids = Vec::with_capacity(requests.len());
        for req in requests {
            let id = match req.node_type {
                NodeType::Article => overlay.add_article(req.creator, &req.subjects)?,
                ty => overlay.add_reader(ty, &req.articles)?,
            };
            targets[req.node_type.slot()].push(id);
            ids.push(id);
        }
        let texts = requests.iter().map(|r| (r.node_type, r.text.as_str()));
        let (explicit, sequences) = featurise_new_nodes(ctx, texts);
        let new = (&explicit, &sequences);
        let (states, cost) =
            self.restricted_rounds(ctx, base_rounds, served.1, &overlay, new, Some(&targets))?;
        Ok((states, ids, cost))
    }

    /// The restricted loop. With `targets` unset it computes every row
    /// the batch changes, at every round (an ingest). With `targets` it
    /// computes the listed rows at the last round and, at each earlier
    /// round, only the changed rows that a row computed later reads (a
    /// dry run); the changed rows it skips are left stale, so its
    /// result is read at the targets alone.
    fn restricted_rounds(
        &self,
        ctx: &ExperimentContext<'_>,
        base_rounds: &[[Matrix; 3]],
        prev: Option<&StateOverlay>,
        overlay: &GraphOverlay,
        (new_explicit, new_sequences): (&[Matrix; 3], &[Vec<Vec<usize>>; 3]),
        targets: Option<&[Vec<usize>; 3]>,
    ) -> Result<(StateOverlay, DeltaCost), String> {
        self.check_ctx(ctx);
        let rounds = self.config.diffusion_rounds.max(1);
        if base_rounds.len() != rounds {
            return Err(format!(
                "base history has {} rounds but the model diffuses {rounds}",
                base_rounds.len()
            ));
        }
        let mut next = prev.cloned().unwrap_or_else(|| StateOverlay::new(rounds));
        if next.rounds.len() != rounds {
            return Err(format!(
                "previous states have {} rounds but the model diffuses {rounds}",
                next.rounds.len()
            ));
        }
        let (had, appended) = (next.appended(), overlay.appended());
        if (0..3).any(|slot| had[slot] > appended[slot]) {
            return Err(format!(
                "previous states cover {had:?} ingested nodes but the overlay appends {appended:?}"
            ));
        }
        let new_n: [usize; 3] = std::array::from_fn(|slot| appended[slot] - had[slot]);
        check_overlay_inputs(ctx, overlay, new_explicit, new_sequences, new_n)?;
        let graph = &ctx.corpus.graph;
        let base_counts = overlay.base_counts();
        let counts = overlay.counts();
        // Combined index of the batch's first new node, per slot.
        let first_new: [usize; 3] = std::array::from_fn(|slot| counts[slot] - new_n[slot]);
        let hidden = self.config.gdu_hidden;
        let params = &self.network.params;
        let diffuse = self.config.use_diffusion;
        let mut cost = DeltaCost::default();

        // HFLU rows of the new nodes, encoded once from the frozen
        // vocabulary/χ² pipeline and kept for every later step.
        for (slot, &n) in new_n.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let input = raw_input(new_explicit, new_sequences, slot);
            let x = self.network.hflu[slot].encode(params, input);
            for k in 0..n {
                next.encoded[slot].push(x.row(k).into());
            }
            cost.encoded += n;
        }

        // The rows each round changes: the existing rows with a neighbour
        // whose previous-round row changed — a new article (its author
        // and subjects, whose lists grew) or a changed existing row —
        // then the batch's new nodes.
        let mut rows: Vec<[Vec<usize>; 3]> = Vec::with_capacity(rounds);
        let mut changed: [Vec<usize>; 3] = Default::default();
        for r in 1..=rounds {
            let mut existing: [BTreeSet<usize>; 3] = Default::default();
            if r > 1 && diffuse {
                for a in first_new[0]..counts[0] {
                    add_neighbours(overlay, graph, 0, a, &mut existing);
                }
                for (slot, idxs) in changed.iter().enumerate() {
                    for &i in idxs {
                        add_neighbours(overlay, graph, slot, i, &mut existing);
                    }
                }
            }
            changed = std::array::from_fn(|slot| {
                existing[slot].iter().copied().filter(|&i| i < first_new[slot]).collect()
            });
            rows.push(std::array::from_fn(|slot| {
                changed[slot].iter().copied().chain(first_new[slot]..counts[slot]).collect()
            }));
        }
        // A dry run keeps its targets in the last round and, below them,
        // only the changed rows that a kept row reads.
        if let Some(targets) = targets {
            rows[rounds - 1] = targets.clone();
            for r in (1..rounds).rev() {
                let mut read: [BTreeSet<usize>; 3] = Default::default();
                for (slot, idxs) in rows[r].iter().enumerate().filter(|_| diffuse) {
                    for &i in idxs {
                        add_neighbours(overlay, graph, slot, i, &mut read);
                    }
                }
                for (slot, kept) in rows[r - 1].iter_mut().enumerate() {
                    kept.retain(|i| read[slot].contains(i));
                }
            }
        }

        // Base HFLU rows are re-encoded per step (no corpus-wide cache),
        // once each however many rounds recompute them.
        let mut base_x: [BTreeMap<usize, Row>; 3] = Default::default();
        for (r, round_rows) in (1..=rounds).zip(&rows) {
            let base_rows: usize = (0..3)
                .map(|slot| round_rows[slot].iter().filter(|&&i| i < base_counts[slot]).count())
                .sum();
            cost.max_affected_base = cost.max_affected_base.max(base_rows);
            cost.base_rows += base_rows;
            cost.appended_rows += round_rows.iter().map(Vec::len).sum::<usize>() - base_rows;

            // Round r reads round r − 1 of this generation (round 0 is
            // all zeros, and a mean/gather of zero rows is exactly zero,
            // so round 1 skips the reads entirely).
            let (done, todo) = next.rounds.split_at_mut(r - 1);
            let prev_view = done
                .last()
                .filter(|_| diffuse)
                .map(|delta| StateView::with_delta(&base_rounds[r - 2], delta));
            for (slot, idxs) in round_rows.iter().enumerate() {
                if idxs.is_empty() {
                    continue;
                }
                let missing: Vec<usize> = idxs
                    .iter()
                    .copied()
                    .filter(|&i| i < base_counts[slot] && !base_x[slot].contains_key(&i))
                    .collect();
                if !missing.is_empty() {
                    let ty = NodeType::ALL[slot];
                    let input = HfluInput::gather(ctx, ty, missing.iter().copied());
                    let m = self.network.hflu[slot].encode(params, input);
                    for (k, &i) in missing.iter().enumerate() {
                        base_x[slot].insert(i, m.row(k).into());
                    }
                    cost.encoded += missing.len();
                }
                let mut x = Matrix::zeros(idxs.len(), self.network.hflu[slot].out_dim());
                for (k, &i) in idxs.iter().enumerate() {
                    let encoded = if i < base_counts[slot] {
                        &base_x[slot][&i]
                    } else {
                        next.encoded[slot].get(i - base_counts[slot]).expect("ingested node encoded")
                    };
                    x.row_mut(k).copy_from_slice(encoded);
                }
                // Articles average their subjects' states (z) and read
                // their author's (t); creators and subjects average their
                // articles'. Empty lists and absent authors stay zero.
                let mut z = Matrix::zeros(idxs.len(), hidden);
                let mut t_in = Matrix::zeros(idxs.len(), hidden);
                for (k, &i) in idxs.iter().enumerate() {
                    let Some(view) = &prev_view else { break };
                    if slot == 0 {
                        let subjects = overlay.subjects_of_article(graph, i);
                        mean_into(view, 2, subjects, &[], z.row_mut(k));
                        if let Some(u) = overlay.author_of(graph, i) {
                            t_in.row_mut(k).copy_from_slice(view.row(1, u));
                        }
                    } else {
                        let (base_part, extra) = articles_of(overlay, graph, slot, i);
                        mean_into(view, 0, base_part, extra, z.row_mut(k));
                    }
                }
                let h = self.network.gdu[slot].forward_matrix(
                    params,
                    &x,
                    &z,
                    &t_in,
                    self.config.use_gates,
                );
                for (k, &i) in idxs.iter().enumerate() {
                    todo[0].rows[slot].set(i, h.row(k).into());
                }
            }
        }
        Ok((next, cost))
    }

    /// Reference recompute for the parity gate: the full per-round
    /// diffusion over the **extended** graph (base corpus + overlay)
    /// with the frozen feature pipeline — O(corpus) per call, exactly
    /// what [`TrainedFakeDetector::delta_states`] avoids paying. Base
    /// node features come from the context, appended node features from
    /// `new_explicit` / `new_sequences`.
    pub fn extended_states_rounds(
        &self,
        ctx: &ExperimentContext<'_>,
        overlay: &GraphOverlay,
        new_explicit: &[Matrix; 3],
        new_sequences: &[Vec<Vec<usize>>; 3],
    ) -> Result<Vec<[Matrix; 3]>, String> {
        self.check_ctx(ctx);
        let new_n = overlay.appended();
        check_overlay_inputs(ctx, overlay, new_explicit, new_sequences, new_n)?;
        let graph = &ctx.corpus.graph;
        let base_counts = overlay.base_counts();
        // Base rows from the context, appended rows from the
        // frozen-pipeline features, one HFLU input per slot.
        let extended = Subgraph::extended(overlay, graph);
        Ok(self.network.forward_states_rounds(&self.config, &extended, |slot| {
            HfluInput::gather(ctx, NodeType::ALL[slot], 0..base_counts[slot])
                .chain(raw_input(new_explicit, new_sequences, slot))
        }))
    }
}

/// The frozen-pipeline features of nodes outside the corpus, per slot
/// in the order given: each `(type, text)` is tokenised and featurised
/// with the training vocabulary and χ² word sets, exactly as corpus
/// nodes were. These are the `new_explicit` / `new_sequences` that
/// [`TrainedFakeDetector::delta_states`] takes.
pub fn featurise_new_nodes<'t>(
    ctx: &ExperimentContext<'_>,
    nodes: impl IntoIterator<Item = (NodeType, &'t str)>,
) -> ([Matrix; 3], [Vec<Vec<usize>>; 3]) {
    let (tokenizer, tokenized) = (Tokenizer::default(), ctx.tokenized);
    let mut rows: [Vec<f32>; 3] = Default::default();
    let mut sequences: [Vec<Vec<usize>>; 3] = Default::default();
    for (ty, text) in nodes {
        let tokens = tokenizer.tokenize(text);
        rows[ty.slot()].extend_from_slice(ctx.explicit.featurise_tokens(ty, &tokens).row(0));
        sequences[ty.slot()].push(encode_sequence(&tokens, &tokenized.vocab, tokenized.seq_len));
    }
    let dim = ctx.explicit.dim;
    let explicit = std::array::from_fn(|slot| {
        Matrix::from_vec(sequences[slot].len(), dim, std::mem::take(&mut rows[slot]))
    });
    (explicit, sequences)
}

/// The HFLU input of `slot`'s nodes outside the corpus.
fn raw_input<'a>(
    explicit: &[Matrix; 3],
    sequences: &'a [Vec<Vec<usize>>; 3],
    slot: usize,
) -> HfluInput<'a> {
    HfluInput::raw(explicit[slot].clone(), sequences[slot].iter().map(Vec::as_slice).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FakeDetector, FakeDetectorConfig, ScoreRequest};
    use fd_data::{
        generate, CvSplits, ExplicitFeatures, GeneratorConfig, LabelMode, TokenizedCorpus,
        TrainSets,
    };
    use fd_text::{encode_sequence, Tokenizer};
    use rand::{rngs::StdRng, SeedableRng};

    struct Fixture {
        corpus: fd_data::Corpus,
        tokenized: TokenizedCorpus,
        explicit: ExplicitFeatures,
        train: TrainSets,
    }

    fn fixture() -> Fixture {
        let corpus = generate(&GeneratorConfig::politifact().scaled(0.01), 11);
        let tokenized = TokenizedCorpus::build(&corpus, 12, 3000);
        let mut rng = StdRng::seed_from_u64(4);
        let train = TrainSets {
            articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
            creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
            subjects: CvSplits::new(corpus.subjects.len(), 6, &mut rng).fold(0).0,
        };
        let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, 40);
        Fixture { corpus, tokenized, explicit, train }
    }

    fn make_ctx(f: &Fixture) -> fd_data::ExperimentContext<'_> {
        fd_data::ExperimentContext {
            corpus: &f.corpus,
            tokenized: &f.tokenized,
            explicit: &f.explicit,
            train: &f.train,
            mode: LabelMode::Binary,
            seed: 9,
        }
    }

    fn train_with(ctx: &fd_data::ExperimentContext<'_>, rounds: usize) -> TrainedFakeDetector {
        let config = FakeDetectorConfig {
            epochs: 1,
            validation_fraction: 0.0,
            diffusion_rounds: rounds,
            ..FakeDetectorConfig::default()
        };
        FakeDetector::new(config).fit(ctx)
    }

    /// Tokenises `text` through the frozen pipeline, appending one
    /// explicit row and one sequence for a node of `ty`.
    fn featurise(
        ctx: &fd_data::ExperimentContext<'_>,
        ty: fd_graph::NodeType,
        text: &str,
        explicit: &mut Vec<Vec<f32>>,
        sequences: &mut Vec<Vec<usize>>,
    ) {
        let tokens = Tokenizer::default().tokenize(text);
        explicit.push(ctx.explicit.featurise_tokens(ty, &tokens).row(0).to_vec());
        sequences.push(encode_sequence(&tokens, &ctx.tokenized.vocab, ctx.tokenized.seq_len));
    }

    /// One ingest batch: counts of new creators and subjects (attached
    /// first), then `(creator, subjects)` per article in combined
    /// indices.
    #[derive(Default)]
    struct Batch {
        creators: usize,
        subjects: usize,
        articles: Vec<(usize, Vec<usize>)>,
    }

    const WORDS: [&str; 8] =
        ["budget", "deficit", "medicare", "taxes", "health", "jobs", "border", "economy"];

    fn words(tag: usize) -> String {
        (0..4).map(|j| WORDS[(tag * 3 + j * 5) % WORDS.len()]).collect::<Vec<_>>().join(" ")
    }

    /// Explicit-feature rows and token sequences, per slot.
    type Features = ([Vec<Vec<f32>>; 3], [Vec<Vec<usize>>; 3]);

    /// Attaches `batch` to `overlay` as the server does (creators, then
    /// subjects, then articles) and returns its nodes' features.
    fn attach(
        ctx: &fd_data::ExperimentContext<'_>,
        overlay: &mut GraphOverlay,
        batch: &Batch,
        tag: usize,
    ) -> Features {
        use fd_graph::NodeType;
        let mut rows: [Vec<Vec<f32>>; 3] = Default::default();
        let mut seqs: [Vec<Vec<usize>>; 3] = Default::default();
        for j in 0..batch.creators {
            overlay.add_creator();
            let text = format!("pundit {} {tag}-{j}", words(tag + j));
            featurise(ctx, NodeType::Creator, &text, &mut rows[1], &mut seqs[1]);
        }
        for j in 0..batch.subjects {
            overlay.add_subject();
            let text = format!("controversy {}", words(tag + j + 1));
            featurise(ctx, NodeType::Subject, &text, &mut rows[2], &mut seqs[2]);
        }
        for (j, (creator, subjects)) in batch.articles.iter().enumerate() {
            overlay.add_article(*creator, subjects).unwrap();
            let text = format!("fresh claims on {} {tag}-{j}", words(tag + 2 * j));
            featurise(ctx, NodeType::Article, &text, &mut rows[0], &mut seqs[0]);
        }
        (rows, seqs)
    }

    fn to_matrices(rows: &[Vec<Vec<f32>>; 3], dim: usize) -> [Matrix; 3] {
        std::array::from_fn(|slot| {
            let mut m = Matrix::zeros(rows[slot].len(), dim);
            for (k, row) in rows[slot].iter().enumerate() {
                m.row_mut(k).copy_from_slice(row);
            }
            m
        })
    }

    /// The base creator and subject with the most articles.
    fn hubs(ctx: &fd_data::ExperimentContext<'_>) -> (usize, usize) {
        let g = &ctx.corpus.graph;
        let hub_c = (0..g.n_creators()).max_by_key(|&u| g.articles_of_creator(u).len()).unwrap();
        let hub_s = (0..g.n_subjects()).max_by_key(|&s| g.articles_of_subject(s).len()).unwrap();
        (hub_c, hub_s)
    }

    /// Batch `k` of the parity chain. It rotates through single
    /// articles on base nodes, batches that add creators and subjects
    /// and cite them at once, articles re-citing earlier-ingested
    /// creators and subjects, and articles on the base hubs.
    fn chain_batch(overlay: &GraphOverlay, hub: (usize, usize), k: usize) -> Batch {
        let [_, nc, ns] = overlay.counts();
        let [_, bc, bs] = overlay.base_counts();
        let (hub_c, hub_s) = hub;
        let articles = match k % 5 {
            0 => vec![(k % bc, vec![k % bs])],
            // `nc` / `ns` are the ids the batch's own creator and
            // subject receive.
            1 => vec![(nc, vec![ns, hub_s]), (hub_c, vec![ns]), (nc, vec![])],
            2 => vec![
                (bc + k % (nc - bc), vec![bs + k % (ns - bs), (k * 3) % bs]),
                (nc - 1, vec![ns - 1]),
            ],
            3 => vec![(hub_c, vec![hub_s, (hub_s + 1) % bs]), (k % bc, vec![])],
            _ => vec![(bc + k % (nc - bc), vec![ns, bs + k % (ns - bs), hub_s])],
        };
        // Kind 4's new creator stays isolated: none of its articles cite it.
        let (creators, subjects) = if matches!(k % 5, 1 | 4) { (1, 1) } else { (0, 0) };
        Batch { creators, subjects, articles }
    }

    fn assert_rows_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: width");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
        }
    }

    #[test]
    fn empty_overlay_is_a_no_op_and_extended_matches_base() {
        let f = fixture();
        let ctx = make_ctx(&f);
        let trained = train_with(&ctx, 2);
        let base_rounds = trained.diffused_states_rounds(&ctx);
        let overlay = GraphOverlay::new(&ctx.corpus.graph);
        let no_feats: [Matrix; 3] = std::array::from_fn(|_| Matrix::zeros(0, ctx.explicit.dim));
        let no_seqs: [Vec<Vec<usize>>; 3] = Default::default();

        let (states, cost) = trained
            .delta_states(&ctx, &base_rounds, None, &overlay, &no_feats, &no_seqs)
            .unwrap();
        assert_eq!(cost, DeltaCost::default());
        assert_eq!(states.appended(), [0, 0, 0]);
        for round in states.rounds() {
            assert!(round.rows.iter().all(Chunked::is_empty));
        }

        let extended =
            trained.extended_states_rounds(&ctx, &overlay, &no_feats, &no_seqs).unwrap();
        assert_eq!(extended.len(), base_rounds.len());
        for (r, (a, b)) in extended.iter().zip(&base_rounds).enumerate() {
            for slot in 0..3 {
                for i in 0..a[slot].rows() {
                    assert_rows_eq(a[slot].row(i), b[slot].row(i), &format!("round {r} slot {slot} row {i}"));
                }
            }
        }
    }

    /// The tentpole invariant, over a chain of batches: after every
    /// step, every state row visible through the carried-forward
    /// generation — appended, patched and untouched base rows alike, at
    /// every round — is bit-identical to the full extended-graph
    /// recompute. Untouched rows matching proves the per-batch
    /// recompute set is *sufficient*; matching after many steps proves
    /// no carried-forward row goes stale.
    #[test]
    fn delta_matches_extended_recompute_bitwise() {
        const STEPS: usize = 40;
        for rounds in [2usize, 3] {
            let f = fixture();
            let ctx = make_ctx(&f);
            let trained = train_with(&ctx, rounds);
            let base_rounds = trained.diffused_states_rounds(&ctx);
            let hub = hubs(&ctx);
            let mut overlay = GraphOverlay::new(&ctx.corpus.graph);
            let mut all_rows: [Vec<Vec<f32>>; 3] = Default::default();
            let mut all_seqs: [Vec<Vec<usize>>; 3] = Default::default();
            let mut states: Option<StateOverlay> = None;
            let mut patched_any = false;
            for k in 0..STEPS {
                let batch = chain_batch(&overlay, hub, k);
                let (rows, seqs) = attach(&ctx, &mut overlay, &batch, k);
                let (next, cost) = trained
                    .delta_states(
                        &ctx,
                        &base_rounds,
                        states.as_ref(),
                        &overlay,
                        &to_matrices(&rows, ctx.explicit.dim),
                        &seqs,
                    )
                    .unwrap();
                patched_any |= cost.max_affected_base > 0;
                for slot in 0..3 {
                    all_rows[slot].extend(rows[slot].iter().cloned());
                    all_seqs[slot].extend(seqs[slot].iter().cloned());
                }
                let extended = trained
                    .extended_states_rounds(
                        &ctx,
                        &overlay,
                        &to_matrices(&all_rows, ctx.explicit.dim),
                        &all_seqs,
                    )
                    .unwrap();
                let counts = overlay.counts();
                for (r, delta) in next.rounds().iter().enumerate() {
                    let view = StateView::with_delta(&base_rounds[r], delta);
                    assert_eq!(view.counts(), counts, "rounds={rounds} step={k} r={r}");
                    for slot in 0..3 {
                        for idx in 0..counts[slot] {
                            assert_rows_eq(
                                view.row(slot, idx),
                                extended[r][slot].row(idx),
                                &format!("rounds={rounds} step={k} r={r} slot={slot} idx={idx}"),
                            );
                        }
                    }
                }
                states = Some(next);
            }
            assert!(patched_any, "cited base nodes must be recomputed");
        }
    }

    /// History independence, on counts rather than a timer: after a
    /// long chain, a batch recomputes exactly the rows, and encodes
    /// exactly the nodes, that the same payload costs on a fresh
    /// overlay — even though the chain cited the same hubs throughout.
    #[test]
    fn step_cost_does_not_grow_with_history() {
        const CHAIN: usize = 2_000;
        let f = fixture();
        let ctx = make_ctx(&f);
        let trained = train_with(&ctx, 2);
        let base_rounds = trained.diffused_states_rounds(&ctx);
        let (hub_c, hub_s) = hubs(&ctx);
        let g = &ctx.corpus.graph;
        let (bc, bs) = (g.n_creators(), g.n_subjects());
        // Cites one hub-article pair and two further base nodes; the
        // chain below keeps citing all of them.
        let payload = Batch {
            articles: vec![(hub_c, vec![hub_s, (hub_s + 1) % bs]), (1, vec![1])],
            ..Batch::default()
        };
        let step = |overlay: &mut GraphOverlay, states: Option<&StateOverlay>, batch: &Batch, k| {
            let (rows, seqs) = attach(&ctx, overlay, batch, k);
            let x = to_matrices(&rows, ctx.explicit.dim);
            trained.delta_states(&ctx, &base_rounds, states, overlay, &x, &seqs).unwrap()
        };

        let (_, fresh) = step(&mut GraphOverlay::new(g), None, &payload, 0);
        assert!(fresh.max_affected_base > 0 && fresh.appended_rows > 0 && fresh.encoded > 0);

        let mut overlay = GraphOverlay::new(g);
        let mut states = None;
        for k in 0..CHAIN {
            let creator = if k % 2 == 0 { hub_c } else { k % bc };
            let subjects = if k % bs == hub_s { vec![hub_s] } else { vec![hub_s, k % bs] };
            let batch = Batch { articles: vec![(creator, subjects)], ..Batch::default() };
            let (next, cost) = step(&mut overlay, states.as_ref(), &batch, k);
            assert!(cost.max_affected_base <= 3, "step {k} recomputed {cost:?}");
            states = Some(next);
        }
        let (_, chained) = step(&mut overlay, states.as_ref(), &payload, 0);
        assert_eq!(chained, fresh, "the same payload after {CHAIN} ingests");
    }

    /// Scoring against a served generation: requests may cite ingested
    /// neighbours, and a by-id probability readout matches the
    /// transductive path.
    #[test]
    fn view_scoring_accepts_ingested_neighbours_and_matches_predict_proba() {
        let f = fixture();
        let ctx = make_ctx(&f);
        let trained = train_with(&ctx, 2);
        let base_rounds = trained.diffused_states_rounds(&ctx);
        let mut overlay = GraphOverlay::new(&ctx.corpus.graph);
        // A new creator and subject, one article citing base nodes and
        // one citing the new pair.
        let [_, nc, ns] = overlay.counts();
        let batch = Batch { creators: 1, subjects: 1, articles: vec![(0, vec![0, 1]), (nc, vec![ns, 0])] };
        let (rows, seqs) = attach(&ctx, &mut overlay, &batch, 0);
        let (states, _) = trained
            .delta_states(
                &ctx,
                &base_rounds,
                None,
                &overlay,
                &to_matrices(&rows, ctx.explicit.dim),
                &seqs,
            )
            .unwrap();
        let last = base_rounds.last().unwrap();
        let view = StateView::with_delta(last, states.final_round());

        // A request citing an appended creator/subject validates and
        // scores through the view; the plain base path must reject it.
        let counts = overlay.counts();
        let req = ScoreRequest::article(
            "follow-up on the emerging controversy",
            Some(counts[1] - 1),
            vec![counts[2] - 1],
        );
        let served = Some((&overlay, &states));
        let probs = trained.score_batch(&ctx, &base_rounds, served, std::slice::from_ref(&req));
        assert!((probs.unwrap()[0].iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(trained.score_batch(&ctx, &base_rounds, None, std::slice::from_ref(&req)).is_err());

        // Base-node by-id readout agrees bitwise with predict_proba.
        let reference = trained.predict_proba(&ctx);
        let by_id = trained.node_probabilities(fd_graph::NodeType::Article, view.row(0, 0));
        assert_rows_eq(&by_id, &reference[0][0], "article 0 by-id");
    }
}
