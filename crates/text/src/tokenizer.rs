//! Tokenisation: lower-case, split on non-alphanumerics, drop stop words
//! and fragments.

use crate::stopwords::is_stop_word;

/// Configurable word tokenizer.
///
/// The default configuration matches the preprocessing the paper
/// describes: case folding, punctuation splitting and stop-word removal.
#[derive(Debug, Clone)]
pub struct Tokenizer {
    /// Drop tokens shorter than this many characters.
    pub min_len: usize,
    /// Remove stop words (Fig 1(b)-(c) of the paper are built this way).
    pub remove_stop_words: bool,
    /// Drop tokens that are purely numeric ("2016", "41").
    pub drop_numeric: bool,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Self { min_len: 2, remove_stop_words: true, drop_numeric: true }
    }
}

impl Tokenizer {
    /// Splits `text` into owned, lower-cased tokens.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric() && c != '\'')
            .flat_map(|raw| {
                // Apostrophes split into word + suffix ("don't" -> "don", "t");
                // both halves then face the normal filters.
                raw.split('\'')
            })
            .filter_map(|raw| {
                if raw.is_empty() {
                    return None;
                }
                let token = raw.to_lowercase();
                if token.chars().count() < self.min_len {
                    return None;
                }
                if self.drop_numeric && token.chars().all(|c| c.is_ascii_digit()) {
                    return None;
                }
                if self.remove_stop_words && is_stop_word(&token) {
                    return None;
                }
                Some(token)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_lowercases() {
        let t = Tokenizer::default();
        assert_eq!(
            t.tokenize("The President cut INCOME-tax rates!"),
            vec!["president", "cut", "income", "tax", "rates"]
        );
    }

    #[test]
    fn removes_stop_words_by_default() {
        let t = Tokenizer::default();
        let toks = t.tokenize("this is about the economy and jobs");
        assert_eq!(toks, vec!["economy", "jobs"]);
    }

    #[test]
    fn numeric_tokens_dropped() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize("41 percent in 2016"), vec!["percent"]);
    }

    #[test]
    fn apostrophes_split_contractions() {
        let t = Tokenizer::default();
        // "doesn't" -> "doesn" (stop word) + "t" (too short): both gone.
        assert_eq!(t.tokenize("doesn't obamacare work"), vec!["obamacare", "work"]);
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        let t = Tokenizer::default();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("   \t\n ").is_empty());
        assert!(t.tokenize("— … !!").is_empty());
    }

    #[test]
    fn min_len_filter() {
        let t = Tokenizer { min_len: 5, remove_stop_words: false, drop_numeric: false };
        assert_eq!(t.tokenize("tiny words stay short"), vec!["words", "short"]);
    }

    #[test]
    fn unicode_words_survive() {
        let t = Tokenizer::default();
        assert_eq!(t.tokenize("señor económico"), vec!["señor", "económico"]);
    }
}
