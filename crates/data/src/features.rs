//! Shared feature preparation for every model in the workspace.
//!
//! * [`TokenizedCorpus`] — one-time tokenisation of all entity texts, a
//!   corpus-wide [`Vocab`] (unsupervised, so transductively legitimate)
//!   and fixed-length id sequences for the GRU encoders.
//! * [`TrainSets`] — the per-type training indices produced by the CV
//!   split + θ subsampling.
//! * [`ExplicitFeatures`] — the paper's `W_n`/`W_u`/`W_s` word sets,
//!   χ²-extracted **from the training entities only** (their labels are
//!   supervision), and the resulting bag-of-words vectors for every
//!   entity.

use crate::{Corpus, TrainSets};
use fd_graph::NodeType;
use fd_tensor::Matrix;
use fd_text::{bow_features, encode_sequence, Tokenizer, Vocab, WordSet};

/// Tokenised texts, vocabulary and padded id sequences for all entities.
#[derive(Debug, Clone)]
pub struct TokenizedCorpus {
    /// Tokens per entity, indexed `[article|creator|subject][idx]`.
    tokens: [Vec<Vec<String>>; 3],
    /// Corpus-wide vocabulary over all entity texts.
    pub vocab: Vocab,
    /// Padded/truncated id sequences (length `seq_len`) per entity.
    sequences: [Vec<Vec<usize>>; 3],
    /// The fixed sequence length `q`.
    pub seq_len: usize,
}

impl TokenizedCorpus {
    /// Tokenises every entity text and builds the vocabulary.
    ///
    /// * `seq_len` — the paper's `q` (max article length before
    ///   truncation);
    /// * `max_vocab` — vocabulary cap (most frequent words kept).
    pub fn build(corpus: &Corpus, seq_len: usize, max_vocab: usize) -> Self {
        let tokenizer = Tokenizer::default();
        let tokens = [
            corpus.articles.iter().map(|a| tokenizer.tokenize(&a.text)).collect::<Vec<_>>(),
            corpus.creators.iter().map(|c| tokenizer.tokenize(&c.profile)).collect::<Vec<_>>(),
            corpus
                .subjects
                .iter()
                .map(|s| tokenizer.tokenize(&s.description))
                .collect::<Vec<_>>(),
        ];
        let vocab = Vocab::build(
            tokens.iter().flat_map(|t| t.iter().cloned()),
            2,
            max_vocab,
        );
        let sequences = [
            tokens[0].iter().map(|t| encode_sequence(t, &vocab, seq_len)).collect(),
            tokens[1].iter().map(|t| encode_sequence(t, &vocab, seq_len)).collect(),
            tokens[2].iter().map(|t| encode_sequence(t, &vocab, seq_len)).collect(),
        ];
        Self { tokens, vocab, sequences, seq_len }
    }

    /// The tokens of entity `idx` of type `ty`.
    pub fn tokens(&self, ty: NodeType, idx: usize) -> &[String] {
        &self.tokens[ty.slot()][idx]
    }

    /// The padded id sequence of entity `idx` of type `ty`.
    pub fn sequence(&self, ty: NodeType, idx: usize) -> &[usize] {
        &self.sequences[ty.slot()][idx]
    }

    /// Number of entities of `ty`.
    pub fn count(&self, ty: NodeType) -> usize {
        self.tokens[ty.slot()].len()
    }
}

/// The χ²-extracted discriminative word sets and the explicit BoW
/// features they induce.
#[derive(Debug, Clone)]
pub struct ExplicitFeatures {
    /// `W_n`, `W_u`, `W_s` in type-slot order.
    pub word_sets: [WordSet; 3],
    /// `1 x d` count vectors per entity, type-slot indexed.
    features: [Vec<Matrix>; 3],
    /// Feature dimensionality `d` (shared across types).
    pub dim: usize,
}

impl ExplicitFeatures {
    /// Extracts the word sets from the **training** entities of each type
    /// (binary grouping of their labels as the discrimination target, as
    /// in the paper's data analysis) and featurises every entity with the
    /// paper's raw-count weighting.
    pub fn extract(
        corpus: &Corpus,
        tokenized: &TokenizedCorpus,
        train: &TrainSets,
        dim: usize,
    ) -> Self {
        let build_set = |ty: NodeType| -> WordSet {
            let docs: Vec<Vec<String>> =
                train.for_type(ty).iter().map(|&i| tokenized.tokens(ty, i).to_vec()).collect();
            let labels: Vec<bool> = train
                .for_type(ty)
                .iter()
                .map(|&i| match ty {
                    NodeType::Article => corpus.articles[i].label.is_true_group(),
                    NodeType::Creator => corpus.creators[i].label.is_true_group(),
                    NodeType::Subject => corpus.subjects[i].label.is_true_group(),
                })
                .collect();
            WordSet::extract(&docs, &labels, dim)
        };
        let word_sets = NodeType::ALL.map(build_set);
        let mut explicit = Self { word_sets, features: Default::default(), dim };
        explicit.features = NodeType::ALL.map(|ty| {
            (0..tokenized.count(ty))
                .map(|i| explicit.featurise_tokens(ty, tokenized.tokens(ty, i)))
                .collect()
        });
        explicit
    }

    /// The `1 x dim` explicit feature row of entity `idx` of type `ty`.
    pub fn feature(&self, ty: NodeType, idx: usize) -> &Matrix {
        &self.features[ty.slot()][idx]
    }

    /// Featurises a token sequence with the word set of `ty`: raw counts,
    /// zero-padded to `dim` when the training set yielded fewer
    /// discriminative words than requested (so downstream weight shapes
    /// stay fixed), then L2-normalised. Every corpus entity's feature row
    /// comes from here, and so does inductive scoring of new texts.
    pub fn featurise_tokens(&self, ty: NodeType, tokens: &[String]) -> Matrix {
        let mut f = bow_features(tokens, &self.word_sets[ty.slot()]);
        if f.cols() < self.dim {
            f = f.concat_cols(&Matrix::zeros(1, self.dim - f.cols()));
        }
        normalise_l2(f)
    }
}

/// L2-normalises a row vector (count features otherwise scale with text
/// length, which the linear models are sensitive to). Zero rows pass
/// through unchanged.
fn normalise_l2(mut row: Matrix) -> Matrix {
    let norm = row.frobenius_norm();
    if norm > 0.0 {
        row.map_in_place(|v| v / norm);
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, CvSplits, GeneratorConfig};
    use rand::{rngs::StdRng, SeedableRng};

    fn setup() -> (Corpus, TokenizedCorpus, TrainSets) {
        let corpus = generate(&GeneratorConfig::politifact().scaled(0.02), 5);
        let tokenized = TokenizedCorpus::build(&corpus, 16, 4000);
        let mut rng = StdRng::seed_from_u64(1);
        let train = TrainSets {
            articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
            creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
            subjects: CvSplits::new(corpus.subjects.len(), 6, &mut rng).fold(0).0,
        };
        (corpus, tokenized, train)
    }

    #[test]
    fn tokenized_counts_match_corpus() {
        let (corpus, tok, _) = setup();
        assert_eq!(tok.count(NodeType::Article), corpus.articles.len());
        assert_eq!(tok.count(NodeType::Creator), corpus.creators.len());
        assert_eq!(tok.count(NodeType::Subject), corpus.subjects.len());
    }

    #[test]
    fn sequences_have_fixed_length() {
        let (_, tok, _) = setup();
        for i in 0..tok.count(NodeType::Article) {
            assert_eq!(tok.sequence(NodeType::Article, i).len(), 16);
        }
        for i in 0..tok.count(NodeType::Creator) {
            assert_eq!(tok.sequence(NodeType::Creator, i).len(), 16);
        }
    }

    #[test]
    fn vocab_covers_article_words() {
        let (_, tok, _) = setup();
        // Common generator words must be in vocabulary.
        assert!(tok.vocab.id("people").is_some());
        assert!(tok.vocab.id_space() > 50);
    }

    #[test]
    fn explicit_features_have_requested_dim() {
        let (corpus, tok, train) = setup();
        let ef = ExplicitFeatures::extract(&corpus, &tok, &train, 60);
        for ty in [NodeType::Article, NodeType::Creator, NodeType::Subject] {
            for i in 0..tok.count(ty) {
                assert_eq!(ef.feature(ty, i).shape(), (1, 60));
            }
        }
    }

    #[test]
    fn explicit_features_are_normalised() {
        let (corpus, tok, train) = setup();
        let ef = ExplicitFeatures::extract(&corpus, &tok, &train, 60);
        for i in 0..tok.count(NodeType::Article) {
            let n = ef.feature(NodeType::Article, i).frobenius_norm();
            assert!(n == 0.0 || (n - 1.0).abs() < 1e-4, "norm {n}");
        }
    }

    #[test]
    fn word_sets_pick_up_signature_words() {
        let (corpus, tok, train) = setup();
        let ef = ExplicitFeatures::extract(&corpus, &tok, &train, 60);
        let wn = &ef.word_sets[0];
        // At least a few of the generator's signature words must appear
        // among the top-60 discriminative article words.
        let hits = crate::TRUE_SIGNATURE_WORDS
            .iter()
            .chain(crate::FALSE_SIGNATURE_WORDS)
            .filter(|w| wn.position(w).is_some())
            .count();
        assert!(hits >= 5, "only {hits} signature words in W_n");
    }

    #[test]
    fn featurise_tokens_matches_precomputed() {
        let (corpus, tok, train) = setup();
        let ef = ExplicitFeatures::extract(&corpus, &tok, &train, 60);
        let tokens = tok.tokens(NodeType::Article, 5).to_vec();
        let fresh = ef.featurise_tokens(NodeType::Article, &tokens);
        assert_eq!(&fresh, ef.feature(NodeType::Article, 5));
    }

    #[test]
    fn features_separate_label_groups() {
        // Mean true-group explicit vector must differ from the false
        // group's — otherwise the SVM baseline has nothing to learn.
        let (corpus, tok, train) = setup();
        let ef = ExplicitFeatures::extract(&corpus, &tok, &train, 60);
        let mut true_mean = Matrix::zeros(1, 60);
        let mut false_mean = Matrix::zeros(1, 60);
        let (mut nt, mut nf) = (0, 0);
        for (i, a) in corpus.articles.iter().enumerate() {
            if a.label.is_true_group() {
                true_mean.add_assign(ef.feature(NodeType::Article, i));
                nt += 1;
            } else {
                false_mean.add_assign(ef.feature(NodeType::Article, i));
                nf += 1;
            }
        }
        true_mean = true_mean.scale(1.0 / nt as f32);
        false_mean = false_mean.scale(1.0 / nf as f32);
        let gap = true_mean.sub(&false_mean).frobenius_norm();
        assert!(gap > 0.05, "explicit feature gap {gap} too small");
    }
}
