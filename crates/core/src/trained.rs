//! A trained FakeDetector: transductive prediction, probability scores,
//! inductive scoring of *unseen* articles, and weight (de)serialisation.
//!
//! Inductive scoring addresses the paper's motivating goal of detecting
//! fake news *timely*: a statement that has just appeared can be scored
//! against the already-trained network without retraining, using its
//! author's and subjects' diffused states.

use crate::incremental::StateView;
use crate::model::{Network, NetworkDims};
use crate::{FakeDetectorConfig, HfluInput, TrainReport};
use fd_data::{ExperimentContext, Predictions};
use fd_graph::NodeType;
use fd_nn::Params;
use fd_tensor::{softmax_in_place, Matrix};
use fd_text::{encode_sequence, Tokenizer};
use serde::{Deserialize, Serialize};

/// Total entities a transductive pass scores (all three node types).
fn batch_size(ctx: &ExperimentContext<'_>) -> usize {
    ctx.corpus.articles.len() + ctx.corpus.creators.len() + ctx.corpus.subjects.len()
}

/// One inductive scoring request: the text of an entity that is *not*
/// in the corpus, plus the corpus indices of its neighbours in the
/// News-HSN. This is the unit of work the serving layer micro-batches.
///
/// Which neighbour fields apply depends on `node_type`:
///
/// * [`NodeType::Article`] — `creator` (its author) and `subjects`
///   (topics it indicates); `articles` must be empty.
/// * [`NodeType::Creator`] / [`NodeType::Subject`] — `articles` (the
///   articles it wrote / that indicate it); `creator` and `subjects`
///   must be unset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreRequest {
    /// Which entity type the new node is.
    pub node_type: NodeType,
    /// Raw text (statement, profile or topic description).
    pub text: String,
    /// Authoring creator index (articles only).
    pub creator: Option<usize>,
    /// Indicated subject indices (articles only).
    pub subjects: Vec<usize>,
    /// Neighbouring article indices (creators and subjects only).
    pub articles: Vec<usize>,
}

impl ScoreRequest {
    /// A request for a new article with the given neighbours.
    pub fn article(text: impl Into<String>, creator: Option<usize>, subjects: Vec<usize>) -> Self {
        Self { node_type: NodeType::Article, text: text.into(), creator, subjects, articles: Vec::new() }
    }

    /// A request for a new creator with the given authored articles.
    pub fn creator(text: impl Into<String>, articles: Vec<usize>) -> Self {
        Self { node_type: NodeType::Creator, text: text.into(), creator: None, subjects: Vec::new(), articles }
    }

    /// A request for a new subject with the given indicating articles.
    pub fn subject(text: impl Into<String>, articles: Vec<usize>) -> Self {
        Self { node_type: NodeType::Subject, text: text.into(), creator: None, subjects: Vec::new(), articles }
    }
}

/// The weights and metadata of a fitted model.
pub struct TrainedFakeDetector {
    pub(crate) config: FakeDetectorConfig,
    dims: NetworkDims,
    seed: u64,
    pub(crate) network: Network,
    report: TrainReport,
}

/// Serialised form (weights as a name→matrix map via `Params`).
#[derive(Serialize, Deserialize)]
struct SavedModel {
    config: FakeDetectorConfig,
    dims: NetworkDims,
    seed: u64,
    params_json: String,
    report: TrainReport,
}

impl TrainedFakeDetector {
    pub(crate) fn from_parts(
        config: FakeDetectorConfig,
        dims: NetworkDims,
        seed: u64,
        network: Network,
        report: TrainReport,
    ) -> Self {
        Self { config, dims, seed, network, report }
    }

    /// The training diagnostics recorded during `fit`.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// The model's configuration.
    pub fn config(&self) -> &FakeDetectorConfig {
        &self.config
    }

    /// JSON rendering of the raw weights alone (no config/report
    /// envelope). Two models trained along bit-identical trajectories —
    /// e.g. an uninterrupted run vs. a crash-and-resume of the same run
    /// — produce equal strings; the recovery tests assert exactly that.
    pub fn params_json(&self) -> String {
        self.network.params.to_json()
    }

    /// Checks that a context matches the dimensions this model was
    /// trained for; all prediction entry points call this.
    pub(crate) fn check_ctx(&self, ctx: &ExperimentContext<'_>) {
        assert_eq!(
            ctx.tokenized.vocab.id_space(),
            self.dims.vocab,
            "TrainedFakeDetector: vocabulary size changed since training"
        );
        assert_eq!(
            ctx.explicit.dim, self.dims.explicit_dim,
            "TrainedFakeDetector: explicit feature width changed since training"
        );
        assert_eq!(
            ctx.n_classes(),
            self.dims.n_classes,
            "TrainedFakeDetector: label mode changed since training"
        );
    }

    /// Arg-max predictions for every entity in the context's corpus.
    ///
    /// Runs the tape-free batched forward pass: all nodes of a type go
    /// through one blocked matmul per layer, and independent node types
    /// fan out across `FD_THREADS`.
    pub fn predict(&self, ctx: &ExperimentContext<'_>) -> Predictions {
        self.check_ctx(ctx);
        let latency =
            fd_obs::histogram("infer.predict_us", &fd_obs::exponential_buckets(100.0, 4.0, 10));
        let _span = fd_obs::span_timed("predict", latency);
        let batch = batch_size(ctx);
        fd_obs::histogram("infer.batch_size", &fd_obs::exponential_buckets(16.0, 4.0, 8))
            .record(batch as f64);
        fd_obs::counter("infer.predictions").add(batch as u64);
        fd_obs::event(fd_obs::Level::Debug, "infer.predict", &[("batch", batch.into())]);
        let states = self.diffused_states(ctx);
        let mut predictions = Predictions::zeroed(ctx);
        for (slot, ty) in NodeType::ALL.iter().enumerate() {
            let logits =
                self.network.heads[slot].forward_matrix(&self.network.params, &states[slot]);
            let out = predictions.for_type_mut(*ty);
            for (idx, slot_out) in out.iter_mut().enumerate() {
                *slot_out = logits.row_argmax(idx).index;
            }
        }
        predictions
    }

    /// Per-class probabilities for every entity, type-slot indexed
    /// (articles, creators, subjects), from the batched forward pass.
    ///
    /// ```
    /// # use fd_core::{FakeDetector, FakeDetectorConfig};
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
    /// # let config = FakeDetectorConfig { epochs: 1, ..FakeDetectorConfig::default() };
    /// let trained = FakeDetector::new(config).fit(&ctx);
    /// let [articles, _creators, _subjects] = trained.predict_proba(&ctx);
    /// // Each row is a probability distribution over the classes.
    /// for row in &articles {
    ///     assert_eq!(row.len(), LabelMode::Binary.n_classes());
    ///     assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    /// }
    /// ```
    pub fn predict_proba(&self, ctx: &ExperimentContext<'_>) -> [Vec<Vec<f32>>; 3] {
        self.check_ctx(ctx);
        let latency =
            fd_obs::histogram("infer.proba_us", &fd_obs::exponential_buckets(100.0, 4.0, 10));
        let _span = fd_obs::span_timed("predict_proba", latency);
        let batch = batch_size(ctx);
        fd_obs::histogram("infer.batch_size", &fd_obs::exponential_buckets(16.0, 4.0, 8))
            .record(batch as f64);
        fd_obs::counter("infer.proba").add(batch as u64);
        fd_obs::event(fd_obs::Level::Debug, "infer.predict_proba", &[("batch", batch.into())]);
        let states = self.diffused_states(ctx);
        let mut out: [Vec<Vec<f32>>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (slot, states_of_type) in states.iter().enumerate() {
            let logits =
                self.network.heads[slot].forward_matrix(&self.network.params, states_of_type);
            out[slot] = (0..logits.rows())
                .map(|idx| {
                    let mut probs = logits.row(idx).to_vec();
                    softmax_in_place(&mut probs);
                    probs
                })
                .collect();
        }
        out
    }

    /// The corpus's diffused GDU states, one `count x hidden` matrix per
    /// node type (articles, creators, subjects). These depend only on
    /// the trained weights and the corpus, so a serving process computes
    /// them once at startup and reuses them for every inductive request;
    /// they are the neighbour-state inputs [`TrainedFakeDetector::score_batch`]
    /// reads.
    pub fn diffused_states(&self, ctx: &ExperimentContext<'_>) -> [Matrix; 3] {
        self.diffused_states_rounds(ctx).pop().expect("at least one diffusion round")
    }

    /// [`TrainedFakeDetector::diffused_states`] keeping every round's
    /// state matrices (the final element is `diffused_states`). The
    /// per-round history is the baseline that incremental ingestion
    /// ([`TrainedFakeDetector::delta_states`]) diffs against.
    pub fn diffused_states_rounds(&self, ctx: &ExperimentContext<'_>) -> Vec<[Matrix; 3]> {
        self.check_ctx(ctx);
        let graph = &ctx.corpus.graph;
        let counts = [graph.n_articles(), graph.n_creators(), graph.n_subjects()];
        self.network.forward_states_rounds(&self.config, graph, |slot| {
            HfluInput::gather(ctx, NodeType::ALL[slot], 0..counts[slot])
        })
    }

    /// Checks a [`ScoreRequest`]'s neighbour indices against the corpus
    /// without running the model — the serving layer rejects bad
    /// requests with a 4xx *before* they reach the shared batch queue.
    pub fn validate_request(
        &self,
        ctx: &ExperimentContext<'_>,
        req: &ScoreRequest,
    ) -> Result<(), String> {
        self.validate_request_extended(
            [ctx.corpus.articles.len(), ctx.corpus.creators.len(), ctx.corpus.subjects.len()],
            req,
        )
    }

    /// [`TrainedFakeDetector::validate_request`] against explicit node
    /// counts `[articles, creators, subjects]` — the serving layer
    /// passes its live combined counts (base corpus + ingested nodes)
    /// so requests may reference ingested neighbours too.
    pub fn validate_request_extended(
        &self,
        counts: [usize; 3],
        req: &ScoreRequest,
    ) -> Result<(), String> {
        let [n_articles, n_creators, n_subjects] = counts;
        match req.node_type {
            NodeType::Article => {
                if !req.articles.is_empty() {
                    return Err("article requests take creator/subjects, not articles".into());
                }
                if let Some(u) = req.creator {
                    if u >= n_creators {
                        return Err(format!("creator {u} out of range (corpus has {n_creators})"));
                    }
                }
                if let Some(&s) = req.subjects.iter().find(|&&s| s >= n_subjects) {
                    return Err(format!("subject {s} out of range (corpus has {n_subjects})"));
                }
            }
            NodeType::Creator | NodeType::Subject => {
                if req.creator.is_some() || !req.subjects.is_empty() {
                    return Err(format!(
                        "{:?} requests take articles, not creator/subjects",
                        req.node_type
                    ));
                }
                if let Some(&a) = req.articles.iter().find(|&&a| a >= n_articles) {
                    return Err(format!("article {a} out of range (corpus has {n_articles})"));
                }
            }
        }
        Ok(())
    }

    /// **Micro-batched** inductive scoring: featurises every request's
    /// text, groups requests by node type, and runs one matrix-level
    /// forward per type — HFLU batch encode, one GDU step against the
    /// precomputed corpus `states` (see
    /// [`TrainedFakeDetector::diffused_states`]), one head matmul —
    /// instead of one full pass per request. Returns per-class
    /// probabilities in request order.
    ///
    /// **Batching never changes an answer**: row `i` of every op here is
    /// independent of the other rows, so the probabilities for a request
    /// are bit-identical whether it is scored alone or with any
    /// companions. That invariant is what lets the serving layer batch
    /// opportunistically under load without becoming nondeterministic.
    ///
    /// Returns `Err` (never panics) when a request fails
    /// [`TrainedFakeDetector::validate_request`].
    pub fn score_batch(
        &self,
        ctx: &ExperimentContext<'_>,
        states: &[Matrix; 3],
        requests: &[ScoreRequest],
    ) -> Result<Vec<Vec<f32>>, String> {
        self.score_batch_view(ctx, &StateView::from_base(states), requests)
    }

    /// [`TrainedFakeDetector::score_batch`] reading neighbour states
    /// through a [`StateView`] instead of plain matrices, so requests
    /// can reference ingested nodes (appended rows) and base nodes
    /// whose states an ingest delta patched. With an overlay-free view
    /// the result is bit-identical to `score_batch` — the mean/gather
    /// arithmetic replays `fd_tensor::mean_rows`/`gather_rows` exactly.
    pub fn score_batch_view(
        &self,
        ctx: &ExperimentContext<'_>,
        view: &StateView<'_>,
        requests: &[ScoreRequest],
    ) -> Result<Vec<Vec<f32>>, String> {
        self.check_ctx(ctx);
        let counts = view.counts();
        for (i, req) in requests.iter().enumerate() {
            self.validate_request_extended(counts, req).map_err(|e| format!("request {i}: {e}"))?;
        }
        fd_obs::counter("infer.score_batch_calls").inc();
        fd_obs::counter("infer.score_batch_items").add(requests.len() as u64);

        let hidden = self.config.gdu_hidden;
        let tokenizer = Tokenizer::default();
        let mut by_slot: [Vec<usize>; 3] = Default::default();
        for (i, req) in requests.iter().enumerate() {
            by_slot[req.node_type.slot()].push(i);
        }

        let mut out: Vec<Vec<f32>> = vec![Vec::new(); requests.len()];
        for (slot, members) in by_slot.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let n = members.len();
            let ty = NodeType::ALL[slot];
            let mut explicit_rows = Matrix::zeros(n, ctx.explicit.dim);
            let mut sequences: Vec<Vec<usize>> = Vec::with_capacity(n);
            for (k, &ri) in members.iter().enumerate() {
                let tokens = tokenizer.tokenize(&requests[ri].text);
                explicit_rows
                    .row_mut(k)
                    .copy_from_slice(ctx.explicit.featurise_tokens(ty, &tokens).row(0));
                sequences.push(encode_sequence(&tokens, &ctx.tokenized.vocab, ctx.tokenized.seq_len));
            }
            let seq_refs: Vec<&[usize]> = sequences.iter().map(Vec::as_slice).collect();
            let x = self.network.hflu[slot]
                .encode(&self.network.params, HfluInput::raw(explicit_rows, seq_refs));
            // Articles aggregate subject states and read their creator's
            // state; creators/subjects aggregate article states — the
            // same wiring as one diffusion round of the full graph, read
            // through the view (base matrix, ingest patch, or appended
            // rows), so batching and overlays never change an answer.
            let (z, t_in) = view.gdu_inputs(slot, n, hidden, |k| {
                let req = &requests[members[k]];
                match (self.config.use_diffusion, slot) {
                    (false, _) => (&[][..], &[][..], None),
                    (true, 0) => (req.subjects.as_slice(), &[][..], req.creator),
                    (true, _) => (req.articles.as_slice(), &[][..], None),
                }
            });
            let gdu = &self.network.gdu[slot];
            let h = gdu.forward_matrix(&self.network.params, &x, &z, &t_in, self.config.use_gates);
            let logits = self.network.heads[slot].forward_matrix(&self.network.params, &h);
            for (k, &ri) in members.iter().enumerate() {
                let mut probs = logits.row(k).to_vec();
                softmax_in_place(&mut probs);
                out[ri] = probs;
            }
        }
        Ok(out)
    }

    /// Per-class probabilities of a node already in the (live) graph,
    /// from its final-round diffused state row: one head matmul plus
    /// softmax, bit-identical to the corresponding row of
    /// [`TrainedFakeDetector::predict_proba`]. The serving layer's
    /// by-id lookups and ingest responses read state rows out of a
    /// [`StateView`] and score them here.
    pub fn node_probabilities(&self, ty: NodeType, state_row: &[f32]) -> Vec<f32> {
        let slot = ty.slot();
        let h = Matrix::row_vector(state_row);
        let logits = self.network.heads[slot].forward_matrix(&self.network.params, &h);
        let mut probs = logits.row(0).to_vec();
        softmax_in_place(&mut probs);
        probs
    }

    /// **Inductive** scoring of an article that is *not* in the corpus:
    /// its text is featurised with the trained word sets and vocabulary,
    /// and one article-GDU step is run against the diffused states of
    /// its (existing) creator and subjects. Returns per-class
    /// probabilities under the training label mode — bit-identical to
    /// the same request through [`TrainedFakeDetector::score_batch`],
    /// which it wraps. It diffuses the whole corpus on every call;
    /// callers scoring many articles should compute
    /// [`TrainedFakeDetector::diffused_states`] once and batch.
    ///
    /// # Panics
    /// Panics when `creator`/`subjects` indices are out of range.
    pub fn score_new_article(
        &self,
        ctx: &ExperimentContext<'_>,
        text: &str,
        creator: Option<usize>,
        subjects: &[usize],
    ) -> Vec<f32> {
        self.check_ctx(ctx);
        fd_obs::counter("infer.new_article_scores").inc();
        let req = ScoreRequest::article(text, creator, subjects.to_vec());
        if let Err(e) = self.validate_request(ctx, &req) {
            panic!("score_new_article: {e}");
        }
        let states = self.diffused_states(ctx);
        let mut probs = self.score_batch(ctx, &states, &[req]).expect("request validated above");
        probs.pop().expect("one request, one answer")
    }

    /// Serialises config + dimensions + weights + diagnostics to JSON.
    pub fn to_json(&self) -> String {
        let saved = SavedModel {
            config: self.config.clone(),
            dims: self.dims,
            seed: self.seed,
            params_json: self.network.params.to_json(),
            report: self.report.clone(),
        };
        serde_json::to_string(&saved).expect("TrainedFakeDetector serialisation cannot fail")
    }

    /// Restores a model saved with [`TrainedFakeDetector::to_json`].
    ///
    /// ```
    /// use fd_core::{FakeDetector, FakeDetectorConfig, TrainedFakeDetector};
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
    /// let restored = TrainedFakeDetector::from_json(&trained.to_json()).unwrap();
    /// assert_eq!(restored.predict(&ctx), trained.predict(&ctx));
    /// ```
    pub fn from_json(json: &str) -> Result<Self, String> {
        let saved: SavedModel = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let params = Params::from_json(&saved.params_json).map_err(|e| e.to_string())?;
        let expected = params.len();
        // Rebuild re-attaches by name; the RNG is only consulted for
        // parameters missing from the store, of which there must be none.
        let network = Network::build(&saved.config, saved.dims, params, saved.seed);
        if network.params.len() != expected {
            return Err(format!(
                "saved weights incomplete: rebuild added {} parameters",
                network.params.len() - expected
            ));
        }
        Ok(Self {
            config: saved.config,
            dims: saved.dims,
            seed: saved.seed,
            network,
            report: saved.report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{oracle, FakeDetector};
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

    fn make_ctx(f: &Fixture) -> ExperimentContext<'_> {
        ExperimentContext {
            corpus: &f.corpus,
            tokenized: &f.tokenized,
            explicit: &f.explicit,
            train: &f.train,
            mode: LabelMode::Binary,
            seed: 9,
        }
    }

    fn quick_train(ctx: &ExperimentContext<'_>) -> TrainedFakeDetector {
        let config = crate::FakeDetectorConfig {
            epochs: 1,
            validation_fraction: 0.0,
            ..crate::FakeDetectorConfig::default()
        };
        FakeDetector::new(config).fit(ctx)
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: width");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
        }
    }

    fn sample_requests(f: &Fixture) -> Vec<ScoreRequest> {
        let graph = &f.corpus.graph;
        vec![
            ScoreRequest::article(
                f.corpus.articles[0].text.clone(),
                graph.author_of(0),
                graph.subjects_of_article(0).to_vec(),
            ),
            ScoreRequest::article("breaking claims about the economy".to_string(), None, vec![]),
            ScoreRequest::creator(
                f.corpus.creators[1].profile.clone(),
                graph.articles_of_creator(1).to_vec(),
            ),
            ScoreRequest::subject(
                f.corpus.subjects[0].description.clone(),
                graph.articles_of_subject(0).to_vec(),
            ),
            ScoreRequest::article(
                "senate votes on the new healthcare bill".to_string(),
                Some(2),
                vec![0, 1],
            ),
        ]
    }

    /// The serving contract: scoring a request inside any batch is
    /// bitwise identical to scoring it alone.
    #[test]
    fn score_batch_is_bitwise_identical_to_singletons() {
        let f = fixture();
        let ctx = make_ctx(&f);
        let trained = quick_train(&ctx);
        let states = trained.diffused_states(&ctx);
        let requests = sample_requests(&f);

        let together = trained.score_batch(&ctx, &states, &requests).unwrap();
        for (i, req) in requests.iter().enumerate() {
            let alone =
                trained.score_batch(&ctx, &states, std::slice::from_ref(req)).unwrap();
            let (a, b) = (&alone[0], &together[i]);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits(), "request {i}: {x} vs {y}");
            }
        }
    }

    /// The batched article step agrees bitwise with the per-node oracle,
    /// and `score_new_article` is that same step.
    #[test]
    fn score_batch_matches_per_node_article_step_bitwise() {
        let f = fixture();
        let ctx = make_ctx(&f);
        let trained = quick_train(&ctx);
        let states = trained.diffused_states(&ctx);

        let cases = [
            ("new claims about medicare spending", Some(1), vec![0, 2]),
            ("no neighbours at all", None, vec![]),
            ("only subjects", None, vec![1]),
        ];
        for (text, creator, subjects) in cases {
            let reference = oracle::score_article(&trained, &ctx, text, creator, &subjects);
            let req = ScoreRequest::article(text, creator, subjects.clone());
            let batched = trained.score_batch(&ctx, &states, &[req]).unwrap();
            let wrapped = trained.score_new_article(&ctx, text, creator, &subjects);
            assert_bits_eq(&reference, &batched[0], text);
            assert_bits_eq(&wrapped, &batched[0], text);
        }
    }

    /// Transductive prediction agrees bitwise with the per-node oracle —
    /// arg-max labels and probabilities — for the full model and every
    /// ablation.
    #[test]
    fn predict_matches_per_node_oracle_across_ablations() {
        let f = fixture();
        let ctx = make_ctx(&f);
        let base = crate::FakeDetectorConfig { epochs: 2, ..crate::FakeDetectorConfig::default() };
        let configs = [
            ("full", base.clone()),
            ("no latent", crate::FakeDetectorConfig { use_latent: false, ..base.clone() }),
            ("no explicit", crate::FakeDetectorConfig { use_explicit: false, ..base.clone() }),
            ("no gates", crate::FakeDetectorConfig { use_gates: false, ..base.clone() }),
            ("no diffusion", crate::FakeDetectorConfig { use_diffusion: false, ..base }),
        ];
        for (name, config) in configs {
            let trained = FakeDetector::new(config).fit(&ctx);
            let logits = oracle::logits(&trained, &ctx);
            let predictions = trained.predict(&ctx);
            let proba = trained.predict_proba(&ctx);
            for (slot, ty) in NodeType::ALL.iter().enumerate() {
                let labels = match ty {
                    NodeType::Article => &predictions.articles,
                    NodeType::Creator => &predictions.creators,
                    NodeType::Subject => &predictions.subjects,
                };
                assert_eq!(labels.len(), logits[slot].len(), "{name}: {ty:?} count");
                for (i, row) in logits[slot].iter().enumerate() {
                    assert_eq!(labels[i], row.row_argmax(0).index, "{name}: {ty:?} {i} label");
                    let mut probs = row.row(0).to_vec();
                    softmax_in_place(&mut probs);
                    assert_bits_eq(&probs, &proba[slot][i], &format!("{name}: {ty:?} {i}"));
                }
            }
        }
    }

    /// Models saved while the config still carried `batched_training`
    /// load, and predict exactly like the model that wrote them.
    #[test]
    fn saved_models_with_retired_batched_training_field_still_load() {
        let f = fixture();
        let ctx = make_ctx(&f);
        let trained = quick_train(&ctx);
        let json = trained.to_json();
        for flag in ["true", "false"] {
            let old = json.replacen(
                "\"train_mode\":",
                &format!("\"batched_training\":{flag},\"train_mode\":"),
                1,
            );
            assert!(old.contains(&format!("\"batched_training\":{flag}")), "field not injected");
            let loaded = TrainedFakeDetector::from_json(&old).unwrap();
            assert_eq!(loaded.predict(&ctx), trained.predict(&ctx));
            let (a, b) = (loaded.predict_proba(&ctx), trained.predict_proba(&ctx));
            for slot in 0..3 {
                for (i, (x, y)) in a[slot].iter().zip(&b[slot]).enumerate() {
                    assert_bits_eq(x, y, &format!("batched_training {flag}: slot {slot} node {i}"));
                }
            }
        }
    }

    /// Bad neighbour indices come back as `Err`, never a panic, and name
    /// the offending request.
    #[test]
    fn score_batch_rejects_bad_requests() {
        let f = fixture();
        let ctx = make_ctx(&f);
        let trained = quick_train(&ctx);
        let states = trained.diffused_states(&ctx);

        let out_of_range = ScoreRequest::article("x", Some(usize::MAX), vec![]);
        let err = trained.score_batch(&ctx, &states, &[out_of_range]).unwrap_err();
        assert!(err.contains("request 0"), "{err}");
        assert!(err.contains("out of range"), "{err}");

        let misdirected = ScoreRequest {
            node_type: fd_graph::NodeType::Creator,
            text: "x".into(),
            creator: Some(0),
            subjects: vec![],
            articles: vec![],
        };
        let err = trained.score_batch(&ctx, &states, &[misdirected]).unwrap_err();
        assert!(err.contains("articles"), "{err}");
    }

    /// `score_batch` must be invariant to `FD_THREADS`.
    #[test]
    fn score_batch_is_thread_invariant() {
        let f = fixture();
        let ctx = make_ctx(&f);
        let trained = quick_train(&ctx);
        let requests = sample_requests(&f);
        let run = |threads: usize| {
            fd_tensor::parallel::with_thread_count(threads, || {
                let states = trained.diffused_states(&ctx);
                trained.score_batch(&ctx, &states, &requests).unwrap()
            })
        };
        let (one, four) = (run(1), run(4));
        for (a, b) in one.iter().zip(&four) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
