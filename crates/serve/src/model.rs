//! Loading a trained bundle into a shareable serving handle.
//!
//! [`ServeModel`] owns everything a request needs — the corpus, the
//! rebuilt feature pipeline, the trained weights, and the precomputed
//! diffused states — so the server can score inductive requests with a
//! dry-run ingest that computes only the rows they read, instead of
//! replaying the whole graph pass per request. It is `Send + Sync` and
//! lives behind an `Arc` shared by every handler thread and the batcher.

use fd_core::{featurise_new_nodes, ScoreRequest, StateOverlay, StateView, TrainedFakeDetector};
use fd_data::{
    Corpus, Credibility, ExperimentContext, ExplicitFeatures, LabelMode, TokenizedCorpus,
    TrainSets,
};
use fd_graph::{GraphOverlay, NodeType};
use fd_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// The on-disk train bundle written by `fdctl train` and consumed by
/// `fdctl predict|evaluate|score|serve`. Everything beyond the raw
/// weights that is needed to rebuild the feature pipeline exactly:
/// train indices (χ² statistics are train-only), feature width,
/// sequence length, vocabulary cap, and label mode.
#[derive(Serialize, Deserialize)]
pub struct TrainBundle {
    /// Serialized [`TrainedFakeDetector`] weights.
    pub model_json: String,
    /// Per-type training indices.
    pub train: BundleSplit,
    /// `"binary"` or `"multi"`.
    pub mode: String,
    /// χ² explicit-feature width per node type.
    pub explicit_dim: usize,
    /// Token-sequence truncation length.
    pub seq_len: usize,
    /// Vocabulary cap for the tokenizer.
    pub max_vocab: usize,
}

/// Serializable mirror of [`TrainSets`].
#[derive(Serialize, Deserialize)]
pub struct BundleSplit {
    /// Training article indices.
    pub articles: Vec<usize>,
    /// Training creator indices.
    pub creators: Vec<usize>,
    /// Training subject indices.
    pub subjects: Vec<usize>,
}

impl From<TrainSets> for BundleSplit {
    fn from(t: TrainSets) -> Self {
        Self { articles: t.articles, creators: t.creators, subjects: t.subjects }
    }
}

impl From<BundleSplit> for TrainSets {
    fn from(b: BundleSplit) -> Self {
        Self { articles: b.articles, creators: b.creators, subjects: b.subjects }
    }
}

/// Parses `"binary"` / `"multi"` into a [`LabelMode`].
pub fn parse_mode(raw: &str) -> Result<LabelMode, String> {
    match raw {
        "binary" => Ok(LabelMode::Binary),
        "multi" => Ok(LabelMode::MultiClass),
        other => Err(format!("mode must be binary or multi, got {other}")),
    }
}

/// The label-mode name used on the wire for a [`LabelMode`].
pub fn mode_name(mode: LabelMode) -> &'static str {
    match mode {
        LabelMode::Binary => "binary",
        LabelMode::MultiClass => "multi",
    }
}

/// One new creator on the ingest wire: the profile text the frozen
/// feature pipeline featurises (mirroring how base creator profiles
/// were featurised at train time).
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct IngestCreator {
    /// Profile/biography text of the creator.
    pub profile: String,
}

/// One new subject on the ingest wire.
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct IngestSubject {
    /// Description text of the subject.
    pub description: String,
}

/// One new article on the ingest wire. Neighbour indices are
/// *combined* indices: base corpus nodes, previously ingested nodes,
/// and nodes earlier in the same batch (creators and subjects are
/// attached before articles) are all valid targets.
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct IngestArticle {
    /// Article body text.
    pub text: String,
    /// Combined index of the authoring creator.
    pub creator: usize,
    /// Combined indices of the subjects the article indicates.
    #[serde(default)]
    pub subjects: Vec<usize>,
}

/// Wire payload of `POST /v1/ingest`: nodes to attach to the live
/// News-HSN. Creators and subjects are attached first (in batch
/// order), then articles — so an article may cite a creator/subject
/// introduced by the same batch.
#[derive(Serialize, Deserialize, Clone, Debug, Default)]
pub struct IngestBatch {
    /// New creators, attached first.
    #[serde(default)]
    pub creators: Vec<IngestCreator>,
    /// New subjects, attached second.
    #[serde(default)]
    pub subjects: Vec<IngestSubject>,
    /// New articles, attached last (may cite batch-new nodes).
    #[serde(default)]
    pub articles: Vec<IngestArticle>,
}

impl IngestBatch {
    /// Total nodes the batch attaches.
    pub fn len(&self) -> usize {
        self.creators.len() + self.subjects.len() + self.articles.len()
    }

    /// Whether the batch attaches nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One attached node in an [`IngestReport`]: its assigned combined
/// index and its credibility distribution after incremental diffusion.
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct IngestedNode {
    /// Combined index the node was assigned (usable as `id` in
    /// `POST /v1/predict` and as a neighbour index in later requests).
    pub id: usize,
    /// Per-class probabilities, aligned with `labels`.
    pub probabilities: Vec<f32>,
}

/// Response body of `POST /v1/ingest`: assigned ids + scores per node,
/// and the cost counters the incremental update actually paid.
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct IngestReport {
    /// Label mode (`"binary"` / `"multi"`).
    pub mode: String,
    /// Class names, index-aligned with every probability vector.
    pub labels: Vec<String>,
    /// Attached creators, batch order.
    pub creators: Vec<IngestedNode>,
    /// Attached subjects, batch order.
    pub subjects: Vec<IngestedNode>,
    /// Attached articles, batch order.
    pub articles: Vec<IngestedNode>,
    /// Largest number of *base* nodes any diffusion round of this
    /// batch recomputed: the base creators and subjects its articles
    /// cite, plus one hop of readers per round beyond the second. It is
    /// the batch's own figure — O(payload × degree), independent of the
    /// corpus size and of earlier ingests.
    pub affected_base_nodes: usize,
    /// Diffusion rounds the delta update replayed.
    pub diffusion_rounds: usize,
    /// Wall-clock µs spent attaching + featurising the new nodes.
    pub attach_us: u64,
    /// Wall-clock µs spent on incremental diffusion.
    pub diffuse_us: u64,
    /// Combined article count after the ingest.
    pub articles_total: usize,
    /// Combined creator count after the ingest.
    pub creators_total: usize,
    /// Combined subject count after the ingest.
    pub subjects_total: usize,
}

/// The immutable, expensive-to-build part of a serving handle: corpus,
/// feature pipeline, weights, and the per-round diffused base states.
/// Shared by every [`ServeModel`] generation an ingest produces, so an
/// ingest clones an `Arc`, never the corpus.
struct BaseModel {
    corpus: Corpus,
    tokenized: TokenizedCorpus,
    explicit: ExplicitFeatures,
    train: TrainSets,
    mode: LabelMode,
    trained: TrainedFakeDetector,
    /// Full diffusion history (one `[articles, creators, subjects]`
    /// state triple per round) — incremental updates patch against
    /// every round, serving reads the last.
    rounds: Vec<[Matrix; 3]>,
}

impl BaseModel {
    fn ctx(&self) -> ExperimentContext<'_> {
        ExperimentContext {
            corpus: &self.corpus,
            tokenized: &self.tokenized,
            explicit: &self.explicit,
            train: &self.train,
            mode: self.mode,
            seed: 0,
        }
    }
}

fn type_name(ty: NodeType) -> &'static str {
    match ty {
        NodeType::Article => "article",
        NodeType::Creator => "creator",
        NodeType::Subject => "subject",
    }
}

/// A self-contained, thread-shareable serving handle: corpus + feature
/// pipeline + trained weights + precomputed diffused states, plus the
/// overlay of nodes ingested since the last full load (empty at load).
///
/// Ingestion is copy-on-write: [`ServeModel::ingest`] returns a *new*
/// handle sharing the same base (behind an `Arc`) with the grown
/// overlay, leaving `self` — and every in-flight request pinned to it —
/// untouched. The server's model slot swaps handles atomically.
pub struct ServeModel {
    base: Arc<BaseModel>,
    /// The ingested nodes' adjacency and per-round states: append-only
    /// stores of `Arc`'d chunks, so the next generation shares them
    /// with this one and copies only the chunks its batch writes.
    graph: GraphOverlay,
    states: StateOverlay,
}

impl ServeModel {
    /// Builds a serving handle from in-memory parts, rebuilding the
    /// feature pipeline and precomputing the diffused corpus states.
    pub fn new(
        corpus: Corpus,
        trained: TrainedFakeDetector,
        train: TrainSets,
        mode: LabelMode,
        explicit_dim: usize,
        seq_len: usize,
        max_vocab: usize,
    ) -> Self {
        let tokenized = TokenizedCorpus::build(&corpus, seq_len, max_vocab);
        let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, explicit_dim);
        let rounds = {
            let ctx = ExperimentContext {
                corpus: &corpus,
                tokenized: &tokenized,
                explicit: &explicit,
                train: &train,
                mode,
                seed: 0,
            };
            let hist =
                fd_obs::histogram("serve.warmup_us", &fd_obs::exponential_buckets(100.0, 4.0, 12));
            let _timer = fd_obs::span_timed("serve.warmup", hist);
            trained.diffused_states_rounds(&ctx)
        };
        let (graph, states) = (GraphOverlay::new(&corpus.graph), StateOverlay::new(rounds.len()));
        let base = BaseModel { corpus, tokenized, explicit, train, mode, trained, rounds };
        Self { base: Arc::new(base), graph, states }
    }

    /// Builds a serving handle from a corpus and a serialized
    /// [`TrainBundle`].
    pub fn from_bundle_json(corpus: Corpus, bundle_json: &str) -> Result<Self, String> {
        let bundle: TrainBundle =
            serde_json::from_str(bundle_json).map_err(|e| format!("bundle: {e}"))?;
        let trained = TrainedFakeDetector::from_json(&bundle.model_json)?;
        let mode = parse_mode(&bundle.mode)?;
        Ok(Self::new(
            corpus,
            trained,
            bundle.train.into(),
            mode,
            bundle.explicit_dim,
            bundle.seq_len,
            bundle.max_vocab,
        ))
    }

    /// Reads the corpus and bundle files and builds a serving handle.
    pub fn load(corpus_path: &str, bundle_path: &str) -> Result<Self, String> {
        let corpus_json =
            std::fs::read_to_string(corpus_path).map_err(|e| format!("{corpus_path}: {e}"))?;
        let corpus = Corpus::from_json(&corpus_json)?;
        let bundle_json =
            std::fs::read_to_string(bundle_path).map_err(|e| format!("{bundle_path}: {e}"))?;
        Self::from_bundle_json(corpus, &bundle_json)
    }

    /// Checks a request against the combined graph (neighbour indices
    /// in range — ingested nodes are valid neighbours — and neighbour
    /// kinds appropriate for the node type) without scoring.
    pub fn validate(&self, request: &ScoreRequest) -> Result<(), String> {
        self.base.trained.validate_request_extended(self.graph.counts(), request)
    }

    /// Scores a batch of requests as a dry-run ingest into this
    /// generation ([`TrainedFakeDetector::score_batch`]): an article gets
    /// the bits [`ServeModel::ingest`] would report for it, alone or in
    /// any batch, and `/v1/predict` carries them to clients bit for bit.
    pub fn score(&self, requests: &[ScoreRequest]) -> Result<Vec<Vec<f32>>, String> {
        let served = Some((&self.graph, &self.states));
        self.base.trained.score_batch(&self.base.ctx(), &self.base.rounds, served, requests)
    }

    /// Credibility distribution of a node *already in* the combined
    /// graph (base corpus or ingested), read straight off its diffused
    /// state — no featurisation, no batching. Errors name the valid
    /// range, so callers can map them to 404.
    pub fn score_node(&self, ty: NodeType, idx: usize) -> Result<Vec<f32>, String> {
        let slot = ty.slot();
        let counts = self.graph.counts();
        if idx >= counts[slot] {
            return Err(format!(
                "{} {idx} out of range (graph has {})",
                type_name(ty),
                counts[slot]
            ));
        }
        let last = self.base.rounds.last().expect("at least one diffusion round");
        let view = StateView::with_delta(last, self.states.final_round());
        Ok(self.base.trained.node_probabilities(ty, view.row(slot, idx)))
    }

    /// Attaches a batch of new nodes and runs incremental diffusion,
    /// returning a new serving handle plus a report with assigned ids,
    /// scores, and cost counters. `self` is untouched (copy-on-write:
    /// the base model is shared via `Arc`, the overlay per chunk), so
    /// in-flight requests pinned to the old handle are unaffected; the
    /// caller swaps the new handle into the model slot. A batch that
    /// fails to attach changes nothing.
    ///
    /// Cost scales with the batch's affected neighbourhood (the new
    /// nodes plus the creators/subjects they cite, expanded one hop per
    /// extra diffusion round), **not** with corpus size or with the
    /// number of earlier ingests.
    ///
    /// ```
    /// # use fd_core::{FakeDetector, FakeDetectorConfig};
    /// # use fd_data::{generate, CvSplits, ExplicitFeatures, GeneratorConfig,
    /// #               ExperimentContext, LabelMode, TokenizedCorpus, TrainSets};
    /// # use fd_serve::{IngestArticle, IngestBatch, ServeModel};
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
    /// # let trained = FakeDetector::new(config).fit(&ctx);
    /// let model = ServeModel::new(corpus, trained, train, LabelMode::Binary, 20, 8, 1500);
    /// let (articles, creators, subjects) = model.corpus_sizes();
    /// let batch = IngestBatch {
    ///     articles: vec![IngestArticle {
    ///         text: "breaking claims about the budget".into(),
    ///         creator: 0,
    ///         subjects: vec![0],
    ///     }],
    ///     ..IngestBatch::default()
    /// };
    /// let (next, report) = model.ingest(&batch).unwrap();
    /// // The new article is appended after the base corpus and scored.
    /// assert_eq!(report.articles[0].id, articles);
    /// assert!((report.articles[0].probabilities.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    /// assert_eq!(next.corpus_sizes(), (articles + 1, creators, subjects));
    /// // The old handle still serves the pre-ingest graph.
    /// assert_eq!(model.corpus_sizes(), (articles, creators, subjects));
    /// ```
    pub fn ingest(&self, batch: &IngestBatch) -> Result<(ServeModel, IngestReport), String> {
        if batch.is_empty() {
            return Err("ingest batch is empty: provide at least one creator, subject or article"
                .to_string());
        }
        let base = &self.base;
        let attach_start = Instant::now();
        let mut graph = self.graph.clone();
        for _ in &batch.creators {
            graph.add_creator();
        }
        for _ in &batch.subjects {
            graph.add_subject();
        }
        for (i, article) in batch.articles.iter().enumerate() {
            graph
                .add_article(article.creator, &article.subjects)
                .map_err(|e| format!("article {i}: {e}"))?;
        }
        // Featurisation goes through the *frozen* pipeline, exactly as
        // base nodes were featurised. (Refreshing the pipeline itself is
        // the slow path: retrain + SIGHUP.)
        let texts = batch.creators.iter().map(|c| (NodeType::Creator, c.profile.as_str()))
            .chain(batch.subjects.iter().map(|s| (NodeType::Subject, s.description.as_str())))
            .chain(batch.articles.iter().map(|a| (NodeType::Article, a.text.as_str())));
        let (explicit, sequences) = featurise_new_nodes(&base.ctx(), texts);
        let attach_us = attach_start.elapsed().as_micros() as u64;

        let diffuse_start = Instant::now();
        let (states, cost) = base.trained.delta_states(
            &base.ctx(),
            &base.rounds,
            Some(&self.states),
            &graph,
            &explicit,
            &sequences,
        )?;
        let diffuse_us = diffuse_start.elapsed().as_micros() as u64;

        let counts = graph.counts();
        let diffusion_rounds = states.rounds().len();
        let next = ServeModel { base: Arc::clone(&self.base), graph, states };
        // Assigned ids: this batch's nodes are the last of each slot.
        let scored = |ty: NodeType, total: usize, n: usize| -> Result<Vec<IngestedNode>, String> {
            (total - n..total)
                .map(|id| Ok(IngestedNode { id, probabilities: next.score_node(ty, id)? }))
                .collect()
        };
        let report = IngestReport {
            mode: mode_name(base.mode).into(),
            labels: next.class_labels().into_iter().map(str::to_string).collect(),
            creators: scored(NodeType::Creator, counts[1], batch.creators.len())?,
            subjects: scored(NodeType::Subject, counts[2], batch.subjects.len())?,
            articles: scored(NodeType::Article, counts[0], batch.articles.len())?,
            affected_base_nodes: cost.max_affected_base,
            diffusion_rounds,
            attach_us,
            diffuse_us,
            articles_total: counts[0],
            creators_total: counts[1],
            subjects_total: counts[2],
        };
        Ok((next, report))
    }

    /// The label mode the model was trained under.
    pub fn mode(&self) -> LabelMode {
        self.base.mode
    }

    /// Class names, index-aligned with the probability vectors.
    pub fn class_labels(&self) -> Vec<&'static str> {
        match self.base.mode {
            LabelMode::Binary => vec!["fake", "credible"],
            LabelMode::MultiClass => Credibility::ALL.iter().map(|l| l.name()).collect(),
        }
    }

    /// Combined graph sizes as (articles, creators, subjects) — base
    /// corpus plus ingested nodes — reported by `/healthz` so operators
    /// can sanity-check what is being served.
    pub fn corpus_sizes(&self) -> (usize, usize, usize) {
        let [articles, creators, subjects] = self.graph.counts();
        (articles, creators, subjects)
    }
}
