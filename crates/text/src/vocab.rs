//! Corpus vocabulary with reserved PAD/UNK ids.

use crate::{RESERVED_IDS, UNK_ID};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A frequency-pruned word↔id mapping.
///
/// Ids `0` and `1` are reserved for PAD and UNK; real words start at
/// [`RESERVED_IDS`]. Words are ordered by descending corpus frequency
/// (ties broken alphabetically) so truncation keeps the most common
/// words — the property the paper's explicit features rely on.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct Vocab {
    words: Vec<String>,
    counts: Vec<u64>,
    #[serde(skip)]
    index: HashMap<String, usize>,
    total_tokens: u64,
    documents: u64,
}

impl Vocab {
    /// Builds a vocabulary from tokenised documents.
    ///
    /// * `min_count` — drop words seen fewer times across the corpus;
    /// * `max_size` — keep at most this many words (most frequent first).
    pub fn build<I, D>(documents: I, min_count: u64, max_size: usize) -> Self
    where
        I: IntoIterator<Item = D>,
        D: IntoIterator<Item = String>,
    {
        let mut freq: HashMap<String, u64> = HashMap::new();
        let mut total_tokens = 0u64;
        let mut n_docs = 0u64;
        for doc in documents {
            n_docs += 1;
            for token in doc {
                total_tokens += 1;
                *freq.entry(token).or_insert(0) += 1;
            }
        }
        let mut entries: Vec<(String, u64)> =
            freq.into_iter().filter(|&(_, c)| c >= min_count).collect();
        // Descending frequency; alphabetical within ties keeps the build
        // deterministic across hash seeds.
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries.truncate(max_size);

        let mut v = Vocab {
            words: entries.iter().map(|(w, _)| w.clone()).collect(),
            counts: entries.iter().map(|&(_, c)| c).collect(),
            index: HashMap::new(),
            total_tokens,
            documents: n_docs,
        };
        v.rebuild_index();
        v
    }

    fn rebuild_index(&mut self) {
        self.index = self
            .words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i + RESERVED_IDS))
            .collect();
    }

    /// Token id of `word`, if in vocabulary. PAD/UNK are not looked up
    /// this way.
    pub fn id(&self, word: &str) -> Option<usize> {
        self.index.get(word).copied()
    }

    /// Token id of `word`, or [`UNK_ID`].
    pub fn id_or_unk(&self, word: &str) -> usize {
        self.id(word).unwrap_or(UNK_ID)
    }

    /// The word behind a token id (`None` for PAD/UNK/out-of-range).
    pub fn word(&self, id: usize) -> Option<&str> {
        if id < RESERVED_IDS {
            return None;
        }
        self.words.get(id - RESERVED_IDS).map(String::as_str)
    }

    /// Corpus frequency of a token id (0 for PAD/UNK).
    pub fn count(&self, id: usize) -> u64 {
        if id < RESERVED_IDS {
            return 0;
        }
        self.counts.get(id - RESERVED_IDS).copied().unwrap_or(0)
    }

    /// Number of real words (excludes PAD/UNK).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when no real words are present.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Total id space including the reserved ids — the embedding-table
    /// height models should allocate.
    pub fn id_space(&self) -> usize {
        self.words.len() + RESERVED_IDS
    }

    /// Total tokens observed while building (before pruning).
    pub fn total_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Number of documents observed while building.
    pub fn documents(&self) -> u64 {
        self.documents
    }

    /// Restores the lookup index after deserialisation.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        let mut v: Vocab = serde_json::from_str(json)?;
        v.rebuild_index();
        Ok(v)
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("Vocab serialisation cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tokenizer, PAD_ID};

    fn docs(texts: &[&str]) -> Vec<Vec<String>> {
        let t = Tokenizer::default();
        texts.iter().map(|s| t.tokenize(s)).collect()
    }

    #[test]
    fn build_orders_by_frequency() {
        let v = Vocab::build(docs(&["tax tax tax economy economy health"]), 1, 100);
        let ranked: Vec<&str> = (RESERVED_IDS..v.id_space()).filter_map(|id| v.word(id)).collect();
        assert_eq!(ranked, vec!["tax", "economy", "health"]);
        assert_eq!(v.count(v.id("tax").unwrap()), 3);
    }

    #[test]
    fn ids_start_after_reserved() {
        let v = Vocab::build(docs(&["alpha beta"]), 1, 10);
        let a = v.id("alpha").unwrap();
        let b = v.id("beta").unwrap();
        assert!(a >= RESERVED_IDS && b >= RESERVED_IDS);
        assert_ne!(a, b);
        assert_eq!(v.id_space(), 4);
    }

    #[test]
    fn unknown_maps_to_unk() {
        let v = Vocab::build(docs(&["alpha"]), 1, 10);
        assert_eq!(v.id_or_unk("missing"), UNK_ID);
        assert_eq!(v.id("missing"), None);
        assert_eq!(v.word(PAD_ID), None);
        assert_eq!(v.word(UNK_ID), None);
    }

    #[test]
    fn min_count_prunes_rare_words() {
        let v = Vocab::build(docs(&["common common rare"]), 2, 10);
        assert!(v.id("common").is_some());
        assert!(v.id("rare").is_none());
    }

    #[test]
    fn max_size_keeps_most_frequent() {
        let v = Vocab::build(docs(&["one one one two two three"]), 1, 2);
        assert_eq!(v.len(), 2);
        assert!(v.id("one").is_some());
        assert!(v.id("two").is_some());
        assert!(v.id("three").is_none());
    }

    #[test]
    fn word_id_roundtrip() {
        let v = Vocab::build(docs(&["president economy gun hoax"]), 1, 100);
        for id in RESERVED_IDS..v.id_space() {
            let w = v.word(id).unwrap();
            assert_eq!(v.id(w), Some(id));
        }
    }

    #[test]
    fn tie_break_is_alphabetical_and_deterministic() {
        let v1 = Vocab::build(docs(&["zeta alpha mid"]), 1, 100);
        let v2 = Vocab::build(docs(&["zeta alpha mid"]), 1, 100);
        let ranked = |v: &Vocab| -> Vec<String> {
            (RESERVED_IDS..v.id_space()).filter_map(|id| v.word(id)).map(str::to_string).collect()
        };
        let (r1, r2) = (ranked(&v1), ranked(&v2));
        assert_eq!(r1, r2);
        assert_eq!(r1, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn corpus_stats_recorded() {
        let v = Vocab::build(docs(&["tax economy", "tax health"]), 1, 100);
        assert_eq!(v.documents(), 2);
        assert_eq!(v.total_tokens(), 4);
    }

    #[test]
    fn json_roundtrip_restores_index() {
        let v = Vocab::build(docs(&["tax economy health"]), 1, 100);
        let back = Vocab::from_json(&v.to_json()).unwrap();
        assert_eq!(back.id("economy"), v.id("economy"));
        assert_eq!(back.len(), v.len());
    }

    #[test]
    fn empty_corpus_is_empty_vocab() {
        let v = Vocab::build(Vec::<Vec<String>>::new(), 1, 10);
        assert!(v.is_empty());
        assert_eq!(v.id_space(), RESERVED_IDS);
    }
}
