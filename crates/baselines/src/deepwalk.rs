//! DeepWalk (Perozzi et al., KDD 2014): truncated random walks over the
//! News-HSN feed a skip-gram model with negative sampling; the learned
//! node embeddings are classified per entity type with the linear SVM —
//! exactly the protocol the paper describes for this baseline.

use crate::embeddings::{negative_table, Sgns};
use crate::svm::{LinearSvm, SvmConfig};
use crate::{CredibilityModel, ExperimentContext, Predictions};
use fd_graph::{generate_walks, NodeRef, NodeType, WalkConfig};
use fd_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// DeepWalk hyper-parameters.
#[derive(Debug, Clone)]
pub struct DeepWalkConfig {
    /// Embedding width.
    pub dim: usize,
    /// Walks per node (γ).
    pub walks_per_node: usize,
    /// Walk length (t).
    pub walk_length: usize,
    /// Skip-gram window (w).
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Passes over the walk corpus.
    pub epochs: usize,
    /// Initial SGD learning rate (decays linearly to 1e-4).
    pub lr: f32,
    /// Downstream SVM settings.
    pub svm: SvmConfig,
}

impl Default for DeepWalkConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            walks_per_node: 6,
            walk_length: 20,
            window: 4,
            negatives: 4,
            epochs: 2,
            lr: 0.05,
            svm: SvmConfig::default(),
        }
    }
}

/// The DeepWalk baseline.
#[derive(Debug, Clone, Default)]
pub struct DeepWalk {
    /// Hyper-parameters.
    pub config: DeepWalkConfig,
}

impl DeepWalk {
    /// Learns embeddings for every node (exposed for tests/ablations).
    pub fn embed(&self, ctx: &ExperimentContext<'_>) -> Vec<Matrix> {
        let graph = &ctx.corpus.graph;
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ SEED_MIX);
        let walk_config = WalkConfig {
            walks_per_node: self.config.walks_per_node,
            walk_length: self.config.walk_length,
        };
        let walks = generate_walks(graph, &walk_config, &mut rng);

        // Node frequencies in the corpus drive negative sampling.
        let mut freq = vec![0.0f64; graph.n_nodes()];
        for walk in &walks {
            for &node in walk {
                freq[node] += 1.0;
            }
        }
        let negatives = negative_table(&freq);

        let mut sgns = Sgns::new(graph.n_nodes(), self.config.dim, &mut rng);
        // Total positive pairs, for the linear LR decay.
        let pairs_per_pass: usize = walks
            .iter()
            .map(|w| w.len() * 2 * self.config.window.min(w.len()))
            .sum();
        let total = (pairs_per_pass * self.config.epochs).max(1);
        let mut seen = 0usize;
        for _epoch in 0..self.config.epochs {
            for walk in &walks {
                for (i, &center) in walk.iter().enumerate() {
                    let lo = i.saturating_sub(self.config.window);
                    let hi = (i + self.config.window + 1).min(walk.len());
                    for (j, &context) in walk.iter().enumerate().take(hi).skip(lo) {
                        if i == j {
                            continue;
                        }
                        let lr = (self.config.lr
                            * (1.0 - seen as f32 / total as f32))
                            .max(1e-4);
                        let negs: Vec<usize> = (0..self.config.negatives)
                            .map(|_| negatives.sample(&mut rng))
                            .collect();
                        sgns.step(center, context, &negs, lr, false);
                        seen += 1;
                    }
                }
            }
        }
        (0..graph.n_nodes()).map(|i| sgns.embedding_normalised(i)).collect()
    }
}

/// Classifies per-type embeddings with OvR SVMs; shared with LINE.
pub(crate) fn classify_embeddings(
    ctx: &ExperimentContext<'_>,
    embeddings: &[Matrix],
    svm_config: &SvmConfig,
    seed: u64,
) -> Predictions {
    let graph = &ctx.corpus.graph;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut predictions = Predictions::zeroed(ctx);
    for ty in NodeType::ALL {
        let train_ids = ctx.train.for_type(ty);
        if train_ids.is_empty() {
            continue;
        }
        let features: Vec<&Matrix> = train_ids
            .iter()
            .map(|&idx| &embeddings[graph.global_id(NodeRef { ty, idx })])
            .collect();
        let targets: Vec<usize> = train_ids.iter().map(|&i| ctx.target(ty, i)).collect();
        let model = LinearSvm::train(&features, &targets, ctx.n_classes(), svm_config, &mut rng);
        let out = predictions.for_type_mut(ty);
        for (idx, slot) in out.iter_mut().enumerate() {
            *slot = model.predict(&embeddings[graph.global_id(NodeRef { ty, idx })]);
        }
    }
    predictions
}

impl CredibilityModel for DeepWalk {
    fn name(&self) -> &'static str {
        "deepwalk"
    }

    fn fit_predict(&self, ctx: &ExperimentContext<'_>) -> Predictions {
        let embeddings = self.embed(ctx);
        classify_embeddings(ctx, &embeddings, &self.config.svm, ctx.seed ^ 0x00d1)
    }
}

/// Seed-mixing constant so DeepWalk's randomness is decorrelated from the
/// other models sharing the run seed.
const SEED_MIX: u64 = 0xdeed_7a1c;

#[cfg(test)]
mod tests {
    use super::*;
    use fd_data::{
        generate, CvSplits, ExperimentContext, ExplicitFeatures, GeneratorConfig, LabelMode,
        TokenizedCorpus, TrainSets,
    };
    use rand::{rngs::StdRng, SeedableRng};

    fn fixture() -> (fd_data::Corpus, TokenizedCorpus, ExplicitFeatures, TrainSets) {
        let corpus = generate(&GeneratorConfig::politifact().scaled(0.012), 31);
        let tokenized = TokenizedCorpus::build(&corpus, 10, 3000);
        let mut rng = StdRng::seed_from_u64(1);
        let train = TrainSets {
            articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
            creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
            subjects: CvSplits::new(corpus.subjects.len(), 6, &mut rng).fold(0).0,
        };
        let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, 40);
        (corpus, tokenized, explicit, train)
    }

    #[test]
    fn embeddings_place_articles_near_their_creator() {
        let (corpus, tokenized, explicit, train) = fixture();
        let ctx = ExperimentContext {
            corpus: &corpus,
            tokenized: &tokenized,
            explicit: &explicit,
            train: &train,
            mode: LabelMode::Binary,
            seed: 3,
        };
        let embeddings = DeepWalk::default().embed(&ctx);
        assert_eq!(embeddings.len(), corpus.graph.n_nodes());
        // Cosine similarity (embeddings are unit-norm) between an
        // article and its own creator must exceed the similarity to a
        // random other creator, on average.
        let mut own = 0.0f32;
        let mut other = 0.0f32;
        let mut n = 0;
        for a in 0..corpus.articles.len().min(120) {
            let creator = corpus.graph.author_of(a).unwrap();
            let far = (creator + corpus.creators.len() / 2) % corpus.creators.len();
            if far == creator {
                continue;
            }
            let ea = &embeddings[corpus.graph.global_id(NodeRef { ty: NodeType::Article, idx: a })];
            let ec = &embeddings[corpus.graph.global_id(NodeRef { ty: NodeType::Creator, idx: creator })];
            let ef = &embeddings[corpus.graph.global_id(NodeRef { ty: NodeType::Creator, idx: far })];
            own += ea.dot(ec);
            other += ea.dot(ef);
            n += 1;
        }
        let (own, other) = (own / n as f32, other / n as f32);
        assert!(
            own > other + 0.05,
            "own-creator similarity {own:.3} not above random {other:.3}"
        );
    }
}
