//! A trained FakeDetector: transductive prediction, probability scores,
//! inductive scoring of *unseen* articles, and weight (de)serialisation.
//!
//! Inductive scoring addresses the paper's motivating goal of detecting
//! fake news *timely*: a statement that has just appeared can be scored
//! against the already-trained network without retraining, as if it were
//! ingested now, by a dry run that leaves the graph untouched.

use crate::incremental::{StateOverlay, StateView};
use crate::model::{Network, NetworkDims};
use crate::{FakeDetectorConfig, HfluInput, TrainReport};
use fd_data::{ExperimentContext, Predictions};
use fd_graph::{GraphOverlay, NodeType};
use fd_nn::Params;
use fd_tensor::{softmax_in_place, Matrix};
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
    /// them once at startup, with every round
    /// ([`TrainedFakeDetector::diffused_states_rounds`]), and reuses them
    /// for every ingest and inductive request.
    pub fn diffused_states(&self, ctx: &ExperimentContext<'_>) -> [Matrix; 3] {
        self.diffused_states_rounds(ctx).pop().expect("at least one diffusion round")
    }

    /// [`TrainedFakeDetector::diffused_states`] keeping every round's
    /// state matrices (the final element is `diffused_states`). The
    /// per-round history is the baseline that incremental ingestion
    /// ([`TrainedFakeDetector::delta_states`]) and inductive scoring
    /// ([`TrainedFakeDetector::score_batch`]) diff against.
    pub fn diffused_states_rounds(&self, ctx: &ExperimentContext<'_>) -> Vec<[Matrix; 3]> {
        self.check_ctx(ctx);
        let graph = &ctx.corpus.graph;
        let counts = [graph.n_articles(), graph.n_creators(), graph.n_subjects()];
        self.network.forward_states_rounds(&self.config, graph, |slot| {
            HfluInput::gather(ctx, NodeType::ALL[slot], 0..counts[slot])
        })
    }

    /// Checks a [`ScoreRequest`] against node counts `[articles,
    /// creators, subjects]` without running the model, refusing every
    /// request the dry-run attach of [`TrainedFakeDetector::score_batch`]
    /// would refuse. The serving layer passes its live combined counts
    /// (base corpus + ingested nodes), so requests may cite ingested
    /// neighbours, and rejects bad requests with a 4xx *before* they
    /// reach the shared batch queue.
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
                if let Some(u) = req.creator.filter(|&u| u >= n_creators) {
                    return Err(format!("creator {u} out of range (corpus has {n_creators})"));
                }
                if let Some(&s) = req.subjects.iter().find(|&&s| s >= n_subjects) {
                    return Err(format!("subject {s} out of range (corpus has {n_subjects})"));
                }
                for (i, s) in req.subjects.iter().enumerate() {
                    if req.subjects[..i].contains(s) {
                        return Err(format!("subject {s} listed twice"));
                    }
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

    /// **Inductive** scoring as a dry-run ingest: the requests are
    /// attached to a throwaway clone of the served generation (`served`,
    /// or the bare corpus when `None`), the restricted loop of
    /// [`TrainedFakeDetector::delta_states`] computes only the rows their
    /// final-round states read, and those states go through the head.
    /// Nothing is stored. `base_rounds` is the corpus history from
    /// [`TrainedFakeDetector::diffused_states_rounds`]. Returns per-class
    /// probabilities in request order, or `Err` (never a panic) when a
    /// request fails [`TrainedFakeDetector::validate_request_extended`].
    ///
    /// An article gets bitwise what ingesting it into the served
    /// generation would report. A creator or subject is a one-way node:
    /// its state reads its articles' round-(L − 1) states (zeros at
    /// L = 1), and they do not read it.
    ///
    /// **Batching never changes an answer.** At L ≤ 2 a state reads only
    /// round-(L − 1) rows, which no new node changes, so a batch shares
    /// one dry run (one HFLU encode and one GDU evaluation per node
    /// type). From L = 3 on, an article's creator and subjects read it,
    /// so each request runs alone.
    pub fn score_batch(
        &self,
        ctx: &ExperimentContext<'_>,
        base_rounds: &[[Matrix; 3]],
        served: Option<(&GraphOverlay, &StateOverlay)>,
        requests: &[ScoreRequest],
    ) -> Result<Vec<Vec<f32>>, String> {
        let graph = served.map_or_else(|| GraphOverlay::new(&ctx.corpus.graph), |s| s.0.clone());
        for (i, req) in requests.iter().enumerate() {
            self.validate_request_extended(graph.counts(), req)
                .map_err(|e| format!("request {i}: {e}"))?;
        }
        fd_obs::counter("infer.score_batch_calls").inc();
        fd_obs::counter("infer.score_batch_items").add(requests.len() as u64);
        let group = if self.config.diffusion_rounds > 2 { 1 } else { requests.len().max(1) };
        let mut out = Vec::with_capacity(requests.len());
        for chunk in requests.chunks(group) {
            let (states, ids, _) =
                self.dry_run(ctx, base_rounds, (&graph, served.map(|s| s.1)), chunk)?;
            let last = base_rounds.last().expect("the run checked the history");
            let view = StateView::with_delta(last, states.final_round());
            out.extend(chunk.iter().zip(ids).map(|(req, id)| {
                self.node_probabilities(req.node_type, view.row(req.node_type.slot(), id))
            }));
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

    /// **Inductive** scoring of one article that is *not* in the
    /// corpus, citing corpus nodes: [`TrainedFakeDetector::score_batch`]
    /// over the bare corpus, so it is scored as if it were ingested now.
    /// It diffuses the whole corpus on every call; callers scoring many
    /// articles should compute
    /// [`TrainedFakeDetector::diffused_states_rounds`] once and batch.
    /// Returns `Err` when `creator`/`subjects` indices are out of range
    /// or a subject is listed twice.
    pub fn score_new_article(
        &self,
        ctx: &ExperimentContext<'_>,
        text: &str,
        creator: Option<usize>,
        subjects: &[usize],
    ) -> Result<Vec<f32>, String> {
        fd_obs::counter("infer.new_article_scores").inc();
        let req = ScoreRequest::article(text, creator, subjects.to_vec());
        self.validate_request_extended(GraphOverlay::new(&ctx.corpus.graph).counts(), &req)?;
        let base_rounds = self.diffused_states_rounds(ctx);
        let mut probs = self.score_batch(ctx, &base_rounds, None, &[req])?;
        Ok(probs.pop().expect("one request, one answer"))
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
    use crate::{featurise_new_nodes, oracle, DeltaCost, FakeDetector};
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
        train_at(ctx, crate::FakeDetectorConfig::default().diffusion_rounds)
    }

    fn train_at(ctx: &ExperimentContext<'_>, rounds: usize) -> TrainedFakeDetector {
        let config = crate::FakeDetectorConfig {
            epochs: 1,
            validation_fraction: 0.0,
            diffusion_rounds: rounds,
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

    /// The sample requests at the default depth, and at L = 3 with two
    /// more articles citing creator 2 and subject 1, as one of the
    /// samples does: in a shared dry run they would read each other.
    fn depth_inputs(f: &Fixture) -> [(usize, Vec<ScoreRequest>); 2] {
        let mut deep = sample_requests(f);
        deep.push(ScoreRequest::article("the governor cut the school budget", Some(2), vec![1]));
        deep.push(ScoreRequest::article("budget cuts hit rural schools", Some(2), vec![3, 1]));
        [(2, sample_requests(f)), (3, deep)]
    }

    /// What ingesting an article would report for it: the head over its
    /// final-round row in the full recompute over a graph holding it.
    fn ingested_reference(
        trained: &TrainedFakeDetector,
        ctx: &ExperimentContext<'_>,
        text: &str,
        creator: Option<usize>,
        subjects: &[usize],
    ) -> Vec<f32> {
        let mut overlay = GraphOverlay::new(&ctx.corpus.graph);
        let id = overlay.add_article(creator, subjects).unwrap();
        let (explicit, sequences) = featurise_new_nodes(ctx, [(NodeType::Article, text)]);
        let history = trained.extended_states_rounds(ctx, &overlay, &explicit, &sequences).unwrap();
        trained.node_probabilities(NodeType::Article, history.last().unwrap()[0].row(id))
    }

    /// The serving contract: scoring a request inside any batch is
    /// bitwise identical to scoring it alone.
    #[test]
    fn score_batch_is_bitwise_identical_to_singletons() {
        let f = fixture();
        let ctx = make_ctx(&f);
        for (rounds, requests) in depth_inputs(&f) {
            let trained = train_at(&ctx, rounds);
            let states = trained.diffused_states_rounds(&ctx);

            let together = trained.score_batch(&ctx, &states, None, &requests).unwrap();
            for (i, req) in requests.iter().enumerate() {
                let alone =
                    trained.score_batch(&ctx, &states, None, std::slice::from_ref(req)).unwrap();
                let (a, b) = (&alone[0], &together[i]);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "request {i}: {x} vs {y}");
                }
            }
        }
    }

    /// An inductive article is scored as if it were ingested: bitwise
    /// the reference ingest answers to (`extended_states_rounds` over a
    /// graph holding it), and `score_new_article` is that same dry run.
    #[test]
    fn score_batch_matches_per_node_article_step_bitwise() {
        let f = fixture();
        let ctx = make_ctx(&f);
        let trained = quick_train(&ctx);
        let states = trained.diffused_states_rounds(&ctx);

        let cases = [
            ("new claims about medicare spending", Some(1), vec![0, 2]),
            ("no neighbours at all", None, vec![]),
            ("only subjects", None, vec![1]),
        ];
        for (text, creator, subjects) in cases {
            let reference = ingested_reference(&trained, &ctx, text, creator, &subjects);
            let req = ScoreRequest::article(text, creator, subjects.clone());
            let batched = trained.score_batch(&ctx, &states, None, &[req]).unwrap();
            let wrapped = trained.score_new_article(&ctx, text, creator, &subjects).unwrap();
            assert_bits_eq(&reference, &batched[0], text);
            assert_bits_eq(&wrapped, &batched[0], text);
        }
    }

    /// At L = 1, 2 and 3: an authorless article is scored as if it were
    /// ingested, and a new creator or subject is the one-way node
    /// `GDU(x, mean of its articles' round-(L − 1) states, 0)`, with
    /// zeros at L = 1.
    #[test]
    fn dry_runs_follow_their_documented_formulas() {
        let f = fixture();
        let ctx = make_ctx(&f);
        let graph = &f.corpus.graph;
        let text = "breaking claims about the economy";
        let readers = [
            ScoreRequest::creator(
                f.corpus.creators[1].profile.clone(),
                graph.articles_of_creator(1).to_vec(),
            ),
            ScoreRequest::subject(
                f.corpus.subjects[0].description.clone(),
                graph.articles_of_subject(0).to_vec(),
            ),
        ];
        for rounds in 1..=3 {
            let trained = train_at(&ctx, rounds);
            let (network, params) = (&trained.network, &trained.network.params);
            let hidden = trained.config.gdu_hidden;
            let history = trained.diffused_states_rounds(&ctx);
            let authorless = ScoreRequest::article(text, None, vec![]);
            let got = trained.score_batch(&ctx, &history, None, &[authorless]).unwrap();
            let want = ingested_reference(&trained, &ctx, text, None, &[]);
            assert_bits_eq(&got[0], &want, &format!("L={rounds} authorless article"));

            let got = trained.score_batch(&ctx, &history, None, &readers).unwrap();
            for (req, got) in readers.iter().zip(&got) {
                let slot = req.node_type.slot();
                let (explicit, sequences) =
                    featurise_new_nodes(&ctx, [(req.node_type, req.text.as_str())]);
                let input = HfluInput::raw(explicit[slot].clone(), vec![&sequences[slot][0]]);
                let x = network.hflu[slot].encode(params, input);
                let z = match rounds {
                    1 => Matrix::zeros(1, hidden),
                    _ => fd_tensor::mean_rows(&history[rounds - 2][0], 1, |_| &req.articles),
                };
                let t_in = Matrix::zeros(1, hidden);
                let gates = trained.config.use_gates;
                let h = network.gdu[slot].forward_matrix(params, &x, &z, &t_in, gates);
                let want = trained.node_probabilities(req.node_type, h.row(0));
                assert_bits_eq(got, &want, &format!("L={rounds} {:?}", req.node_type));
            }
        }
    }

    /// Bounded dry runs, by counts. At L = 2 a batch encodes only its
    /// requests and recomputes no base row. At L = 3 an article citing
    /// the largest creator and subject recomputes itself (rounds 1 and
    /// 3) and, at round 2, that creator and subject, and none of the
    /// readers an ingest of it must refresh.
    #[test]
    fn dry_runs_compute_only_the_rows_their_targets_read() {
        let f = fixture();
        let ctx = make_ctx(&f);
        let g = &f.corpus.graph;
        let served = GraphOverlay::new(g);
        let requests = sample_requests(&f);
        let trained = train_at(&ctx, 2);
        let history = trained.diffused_states_rounds(&ctx);
        let (_, _, cost) = trained.dry_run(&ctx, &history, (&served, None), &requests).unwrap();
        let n = requests.len();
        let want = DeltaCost { max_affected_base: 0, base_rows: 0, appended_rows: n, encoded: n };
        assert_eq!(cost, want);

        let hub_c = (0..g.n_creators()).max_by_key(|&u| g.articles_of_creator(u).len()).unwrap();
        let hub_s = (0..g.n_subjects()).max_by_key(|&s| g.articles_of_subject(s).len()).unwrap();
        let text = "a claim about the biggest names";
        let trained = train_at(&ctx, 3);
        let history = trained.diffused_states_rounds(&ctx);
        let req = ScoreRequest::article(text, Some(hub_c), vec![hub_s]);
        let (_, _, cost) = trained.dry_run(&ctx, &history, (&served, None), &[req]).unwrap();
        let want = DeltaCost { max_affected_base: 2, base_rows: 2, appended_rows: 2, encoded: 3 };
        assert_eq!(cost, want);

        let mut ingested = served.clone();
        ingested.add_article(hub_c, &[hub_s]).unwrap();
        let (explicit, sequences) = featurise_new_nodes(&ctx, [(NodeType::Article, text)]);
        let (_, ingest) =
            trained.delta_states(&ctx, &history, None, &ingested, &explicit, &sequences).unwrap();
        assert!(ingest.base_rows > 2 + g.articles_of_subject(hub_s).len(), "{ingest:?}");
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

    /// Bad neighbour indices and duplicated subjects come back as `Err`,
    /// never a panic, and name the offending request.
    #[test]
    fn score_batch_rejects_bad_requests() {
        let f = fixture();
        let ctx = make_ctx(&f);
        let trained = quick_train(&ctx);
        let states = trained.diffused_states_rounds(&ctx);

        let out_of_range = ScoreRequest::article("x", Some(usize::MAX), vec![]);
        let err = trained.score_batch(&ctx, &states, None, &[out_of_range]).unwrap_err();
        assert!(err.contains("request 0"), "{err}");
        assert!(err.contains("out of range"), "{err}");

        let misdirected = ScoreRequest {
            node_type: fd_graph::NodeType::Creator,
            text: "x".into(),
            creator: Some(0),
            subjects: vec![],
            articles: vec![],
        };
        let err = trained.score_batch(&ctx, &states, None, &[misdirected]).unwrap_err();
        assert!(err.contains("articles"), "{err}");

        let twice = ScoreRequest::article("x", None, vec![1, 0, 1]);
        let twice_err = trained.score_batch(&ctx, &states, None, std::slice::from_ref(&twice));
        let err = twice_err.unwrap_err();
        assert!(err.contains("subject 1 listed twice"), "{err}");
        let counts = GraphOverlay::new(&f.corpus.graph).counts();
        let alone = trained.validate_request_extended(counts, &twice);
        assert_eq!(alone, Err(err.replace("request 0: ", "")));
    }

    /// `score_batch` must be invariant to `FD_THREADS`.
    #[test]
    fn score_batch_is_thread_invariant() {
        let f = fixture();
        let ctx = make_ctx(&f);
        for (rounds, requests) in depth_inputs(&f) {
            let trained = train_at(&ctx, rounds);
            let run = |threads: usize| {
                fd_tensor::parallel::with_thread_count(threads, || {
                    let states = trained.diffused_states_rounds(&ctx);
                    trained.score_batch(&ctx, &states, None, &requests).unwrap()
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
}
