//! Text pipeline for the FakeDetector reproduction.
//!
//! The paper extracts two kinds of textual features from every news
//! article, creator profile and subject description:
//!
//! * **explicit features** — counts over pre-extracted discriminative word
//!   sets `W_n`, `W_u`, `W_s` (one per node type); built here from a
//!   [`Tokenizer`], a corpus-wide [`Vocab`] and a χ²-scored
//!   [`WordSet`];
//! * **latent features** — a GRU run over the token-id sequence; this
//!   crate supplies the [`encode_sequence`] padding/truncation that feeds
//!   it (`fd-nn::GruEncoder` does the rest).
//!
//! ```
//! use fd_text::{Tokenizer, Vocab, WordSet};
//!
//! let tok = Tokenizer::default();
//! let docs = ["the tax plan cuts income tax", "the hoax spreads online"];
//! let vocab = Vocab::build(docs.iter().map(|d| tok.tokenize(d)), 1, 100);
//! assert!(vocab.id("tax").is_some());
//! assert!(vocab.id("the").is_none(), "stop words never enter the vocab");
//! ```

mod bow;
mod sequence;
mod stopwords;
mod tokenizer;
mod vocab;
mod wordset;

pub use bow::bow_features;
pub use sequence::encode_sequence;
pub use stopwords::is_stop_word;
pub use tokenizer::Tokenizer;
pub use vocab::Vocab;
pub use wordset::{chi_squared_scores, WordSet};

/// Reserved token id for padding in encoded sequences.
pub const PAD_ID: usize = 0;
/// Reserved token id for out-of-vocabulary words.
pub const UNK_ID: usize = 1;
/// Number of reserved ids before real words start.
pub const RESERVED_IDS: usize = 2;
