//! Data layer of the FakeDetector reproduction: the credibility label
//! algebra, the News-HSN corpus container, the **synthetic PolitiFact
//! generator**, cross-validation splits and the Fig-1 dataset analyses.
//!
//! # The substitution
//!
//! The paper evaluates on a crawl of PolitiFact (14,055 articles by 3,634
//! creators over 152 subjects with 48,756 article–subject links). That
//! crawl is not redistributable, so [`generate`] manufactures a corpus
//! that reproduces every statistic the paper reports about it:
//!
//! * Table 1 node and link counts (at scale 1.0);
//! * the power-law creator–article distribution of Fig 1(a), with the
//!   most prolific creator around 599 articles;
//! * label-conditioned vocabularies — true-leaning and false-leaning
//!   articles draw from distinct signature word pools (Fig 1(b)/(c));
//! * per-subject true/false skews (Fig 1(d): "health" leans false,
//!   "economy" leans true, …);
//! * archetype creators with the label mixtures of Fig 1(e)/(f).
//!
//! Crucially, labels are generated from latent *creator reliability* ×
//! *subject bias* before any text is emitted, so the graph carries real
//! signal (label propagation, DeepWalk and LINE have something to learn)
//! and the text carries real signal (SVM and the RNN have something to
//! learn) — the two channels whose fusion the paper's model exists to
//! exploit.
//!
//! ```
//! use fd_data::{generate, GeneratorConfig};
//!
//! let corpus = generate(&GeneratorConfig::politifact().scaled(0.01), 42);
//! assert!(corpus.articles.len() > 100);
//! assert_eq!(corpus.graph.n_articles(), corpus.articles.len());
//! ```

mod analysis;
mod corpus;
mod experiment;
mod features;
mod generator;
mod labels;
mod lexicon;
mod split;

pub use analysis::{creator_tally, subject_tallies, word_frequencies, SubjectTally};
pub use corpus::{Article, Corpus, Creator, Subject};
pub use experiment::{CredibilityModel, ExperimentContext, Predictions};
pub use features::{ExplicitFeatures, TokenizedCorpus};
pub use generator::{
    generate, generate_at_scale, generate_shards, generate_tiled, GeneratorConfig,
};
pub use labels::{Credibility, LabelMode};
pub use lexicon::{COMMON_WORDS, FALSE_SIGNATURE_WORDS, SUBJECT_TOPICS, TRUE_SIGNATURE_WORDS};
pub use split::{sample_ratio, CvSplits, TrainSets};
