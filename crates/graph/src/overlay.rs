//! Append-only delta adjacency over a frozen [`HetGraph`].
//!
//! Online ingestion attaches new articles/creators/subjects to a live
//! News-HSN whose base CSR must stay immutable (it is shared by every
//! in-flight request). A [`GraphOverlay`] records the appended nodes
//! and their edges *beside* the base graph and answers combined
//! adjacency queries as "base CSR slice ++ overlay extras" without
//! copying or rebuilding anything — so attaching a node costs O(its
//! degree), not O(corpus).
//!
//! Two structural facts keep the overlay small and the combined lists
//! bitwise-compatible with a from-scratch rebuild:
//!
//! * **Only new articles introduce edges.** An article names its
//!   creator and subjects at ingest time (mirroring
//!   `HetGraph::set_author` / `add_subject_link` at build time); base
//!   articles never gain or lose neighbours, so their CSR slices stay
//!   authoritative. Ingested creators/subjects start isolated and only
//!   acquire edges when later articles cite them. A reader
//!   ([`GraphOverlay::add_reader`]) lists articles that never list it back.
//! * **Extras append in ingestion order.** A creator's combined article
//!   list is its base slice followed by the overlay extras in the order
//!   the citing articles arrived — exactly the insertion order a
//!   rebuilt `HetGraph` would produce, so neighbour means computed over
//!   the combined list reduce in the same sequence and match the
//!   rebuild bit for bit.
//!
//! Every per-node table lives in a [`Chunked`] array, so a clone — the
//! next serving generation — shares all of them with its parent, and
//! attaching an article copies only the chunks holding its own entries
//! and the neighbour lists it extends.
//!
//! ```
//! use fd_graph::{GraphOverlay, HetGraph};
//!
//! let mut g = HetGraph::new(1, 1, 2);
//! g.set_author(0, 0);
//! g.add_subject_link(0, 1);
//!
//! let mut overlay = GraphOverlay::new(&g);
//! let c = overlay.add_creator(); // first appended creator
//! assert_eq!(c, 1);
//! let a = overlay.add_article(0, &[0, 1]).unwrap(); // cites base creator 0
//! assert_eq!(a, 1);
//! let (base, extra) = overlay.articles_of_creator(&g, 0);
//! assert_eq!((base, extra), (&[0][..], &[1][..]));
//! assert_eq!(overlay.counts(), [2, 2, 2]);
//! ```

use crate::{Chunked, HetGraph, NodeType};
use std::sync::Arc;

const EMPTY: &[usize] = &[];

/// Appended nodes and edges over a frozen base graph; see the module
/// docs for the structural invariants. Cloning is O(1): the clone
/// shares every chunk with `self` until one of them writes.
#[derive(Debug, Clone, Default)]
pub struct GraphOverlay {
    /// Base node counts captured at construction:
    /// `[articles, creators, subjects]`.
    base: [usize; 3],
    /// Author (combined creator index, if any) of each appended article.
    new_author: Chunked<Option<usize>>,
    /// Subjects (combined indices, ingestion order, no duplicates) of
    /// each appended article.
    new_subjects: Chunked<Arc<[usize]>>,
    /// Number of appended creators / subjects.
    new_creators: usize,
    new_subjects_n: usize,
    /// Extra citing articles per combined creator index, appended in
    /// ingestion order. Keys cover base creators that gained edges and
    /// appended creators alike.
    extra_creator_articles: Chunked<Arc<[usize]>>,
    /// Same, per combined subject index.
    extra_subject_articles: Chunked<Arc<[usize]>>,
}

/// Appends `article` to `node`'s extra list. The list is copied (it is
/// shared with older generations); its length is the node's overlay
/// degree, which the next diffusion of `node` reads in full anyway.
fn push_extra(extras: &mut Chunked<Arc<[usize]>>, node: usize, article: usize) {
    let list: Arc<[usize]> = list_at(extras, node).iter().copied().chain([article]).collect();
    extras.set(node, list);
}

fn list_at(lists: &Chunked<Arc<[usize]>>, index: usize) -> &[usize] {
    lists.get(index).map_or(EMPTY, |list| &list[..])
}

impl GraphOverlay {
    /// An empty overlay anchored to `base`'s current node counts.
    pub fn new(base: &HetGraph) -> Self {
        Self {
            base: [base.n_articles(), base.n_creators(), base.n_subjects()],
            ..Self::default()
        }
    }

    /// The base node counts the overlay was anchored to:
    /// `[articles, creators, subjects]`.
    pub fn base_counts(&self) -> [usize; 3] {
        self.base
    }

    /// Combined node counts (base + appended), same order.
    pub fn counts(&self) -> [usize; 3] {
        [
            self.base[0] + self.new_author.len(),
            self.base[1] + self.new_creators,
            self.base[2] + self.new_subjects_n,
        ]
    }

    /// Appended node counts only, same order.
    pub fn appended(&self) -> [usize; 3] {
        [self.new_author.len(), self.new_creators, self.new_subjects_n]
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.appended() == [0, 0, 0]
    }

    /// Appends an isolated creator; returns its combined index.
    pub fn add_creator(&mut self) -> usize {
        self.new_creators += 1;
        self.base[1] + self.new_creators - 1
    }

    /// Appends an isolated subject; returns its combined index.
    pub fn add_subject(&mut self) -> usize {
        self.new_subjects_n += 1;
        self.base[2] + self.new_subjects_n - 1
    }

    /// Appends a creator or subject whose article list is `articles`, one
    /// way: those articles do not list it back. Scoring a new creator or
    /// subject adds one; no ingest does.
    pub fn add_reader(&mut self, ty: NodeType, articles: &[usize]) -> Result<usize, String> {
        let n_articles = self.counts()[0];
        if let Some(&a) = articles.iter().find(|&&a| a >= n_articles) {
            return Err(format!("article {a} out of range (graph has {n_articles})"));
        }
        let (node, extras) = match ty {
            NodeType::Article => return Err("articles attach through add_article".into()),
            NodeType::Creator => (self.add_creator(), &mut self.extra_creator_articles),
            NodeType::Subject => (self.add_subject(), &mut self.extra_subject_articles),
        };
        extras.set(node, articles.into());
        Ok(node)
    }

    /// Appends an article authored by `creator` (if any) and indicating
    /// `subjects` (combined indices — base nodes and previously
    /// appended nodes are both valid targets). Returns the article's
    /// combined index, or an error naming the offending edge target
    /// without mutating anything.
    pub fn add_article(
        &mut self,
        creator: impl Into<Option<usize>>,
        subjects: &[usize],
    ) -> Result<usize, String> {
        let creator = creator.into();
        let [_, n_creators, n_subjects] = self.counts();
        if let Some(u) = creator.filter(|&u| u >= n_creators) {
            return Err(format!("creator {u} out of range (graph has {n_creators})"));
        }
        if let Some(&s) = subjects.iter().find(|&&s| s >= n_subjects) {
            return Err(format!("subject {s} out of range (graph has {n_subjects})"));
        }
        for (i, &s) in subjects.iter().enumerate() {
            if subjects[..i].contains(&s) {
                return Err(format!("duplicate subject {s} in article"));
            }
        }
        let article = self.base[0] + self.new_author.len();
        self.new_author.push(creator);
        self.new_subjects.push(subjects.into());
        if let Some(u) = creator {
            push_extra(&mut self.extra_creator_articles, u, article);
        }
        for &s in subjects {
            push_extra(&mut self.extra_subject_articles, s, article);
        }
        Ok(article)
    }

    /// Author of a combined article index. Base articles answer from
    /// the base graph; appended articles from the overlay.
    pub fn author_of(&self, base: &HetGraph, article: usize) -> Option<usize> {
        if article < self.base[0] {
            base.author_of(article)
        } else {
            self.new_author.get(article - self.base[0]).copied().flatten()
        }
    }

    /// Subjects of a combined article index (base CSR slice or overlay
    /// list — base articles never gain subjects, so either side is
    /// complete on its own).
    pub fn subjects_of_article<'a>(&'a self, base: &'a HetGraph, article: usize) -> &'a [usize] {
        if article < self.base[0] {
            base.subjects_of_article(article)
        } else {
            list_at(&self.new_subjects, article - self.base[0])
        }
    }

    /// Articles of a combined creator index as `(base slice, overlay
    /// extras)`; their concatenation, in that order, is the combined
    /// adjacency list in insertion order.
    pub fn articles_of_creator<'a>(
        &'a self,
        base: &'a HetGraph,
        creator: usize,
    ) -> (&'a [usize], &'a [usize]) {
        let base_part =
            if creator < self.base[1] { base.articles_of_creator(creator) } else { EMPTY };
        (base_part, list_at(&self.extra_creator_articles, creator))
    }

    /// Articles of a combined subject index, same convention as
    /// [`GraphOverlay::articles_of_creator`].
    pub fn articles_of_subject<'a>(
        &'a self,
        base: &'a HetGraph,
        subject: usize,
    ) -> (&'a [usize], &'a [usize]) {
        let base_part =
            if subject < self.base[2] { base.articles_of_subject(subject) } else { EMPTY };
        (base_part, list_at(&self.extra_subject_articles, subject))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> HetGraph {
        // 3 articles, 2 creators, 3 subjects.
        let mut g = HetGraph::new(3, 2, 3);
        g.set_author(0, 0);
        g.set_author(1, 0);
        g.set_author(2, 1);
        g.add_subject_link(0, 0);
        g.add_subject_link(0, 1);
        g.add_subject_link(1, 1);
        g.add_subject_link(2, 2);
        g
    }

    #[test]
    fn empty_overlay_answers_base_adjacency() {
        let g = base();
        let o = GraphOverlay::new(&g);
        assert!(o.is_empty());
        assert_eq!(o.counts(), [3, 2, 3]);
        assert_eq!(o.author_of(&g, 2), Some(1));
        assert_eq!(o.subjects_of_article(&g, 0), &[0, 1]);
        assert_eq!(o.articles_of_creator(&g, 0), (&[0, 1][..], EMPTY));
        assert_eq!(o.articles_of_subject(&g, 1), (&[0, 1][..], EMPTY));
    }

    #[test]
    fn appended_article_extends_combined_lists_in_order() {
        let g = base();
        let mut o = GraphOverlay::new(&g);
        let a3 = o.add_article(0, &[1, 2]).unwrap();
        let a4 = o.add_article(0, &[2]).unwrap();
        assert_eq!((a3, a4), (3, 4));
        assert_eq!(o.counts(), [5, 2, 3]);
        assert_eq!(o.author_of(&g, 3), Some(0));
        assert_eq!(o.subjects_of_article(&g, 4), &[2]);
        // Extras arrive in ingestion order after the base slice.
        assert_eq!(o.articles_of_creator(&g, 0), (&[0, 1][..], &[3, 4][..]));
        assert_eq!(o.articles_of_subject(&g, 2), (&[2][..], &[3, 4][..]));
        assert_eq!(o.articles_of_subject(&g, 1), (&[0, 1][..], &[3][..]));
        // Uncited nodes gain nothing.
        assert_eq!(o.articles_of_creator(&g, 1), (&[2][..], EMPTY));
        assert_eq!(o.articles_of_subject(&g, 0), (&[0][..], EMPTY));
    }

    #[test]
    fn appended_creators_and_subjects_start_isolated_then_gain_edges() {
        let g = base();
        let mut o = GraphOverlay::new(&g);
        let c = o.add_creator();
        let s = o.add_subject();
        assert_eq!((c, s), (2, 3));
        assert_eq!(o.articles_of_creator(&g, c), (EMPTY, EMPTY));
        let a = o.add_article(c, &[s]).unwrap();
        assert_eq!(o.articles_of_creator(&g, c), (EMPTY, &[a][..]));
        assert_eq!(o.articles_of_subject(&g, s), (EMPTY, &[a][..]));
        assert_eq!(o.author_of(&g, a), Some(c));
        // No base node was cited.
        assert_eq!(o.articles_of_creator(&g, 0), (&[0, 1][..], EMPTY));
        assert_eq!(o.articles_of_subject(&g, 2), (&[2][..], EMPTY));
    }

    #[test]
    fn bad_edge_targets_are_rejected_without_mutation() {
        let g = base();
        let mut o = GraphOverlay::new(&g);
        assert!(o.add_article(9, &[]).unwrap_err().contains("creator 9 out of range"));
        assert!(o.add_article(0, &[7]).unwrap_err().contains("subject 7 out of range"));
        assert!(o.add_article(0, &[1, 1]).unwrap_err().contains("duplicate subject 1"));
        assert!(o.is_empty());
        assert_eq!(o.articles_of_creator(&g, 0), (&[0, 1][..], EMPTY));
    }

    #[test]
    fn a_clone_grows_without_touching_its_parent() {
        let g = base();
        let mut parent = GraphOverlay::new(&g);
        let s = parent.add_subject();
        parent.add_article(0, &[s]).unwrap();
        let mut child = parent.clone();
        let c = child.add_creator();
        child.add_article(0, &[s, 1]).unwrap();
        child.add_article(c, &[]).unwrap();
        assert_eq!(child.counts(), [6, 3, 4]);
        assert_eq!(child.articles_of_creator(&g, 0), (&[0, 1][..], &[3, 4][..]));
        assert_eq!(child.articles_of_subject(&g, s), (EMPTY, &[3, 4][..]));
        assert_eq!(child.subjects_of_article(&g, 4), &[s, 1]);
        // The parent still answers its own, smaller graph.
        assert_eq!(parent.counts(), [4, 2, 4]);
        assert_eq!(parent.articles_of_creator(&g, 0), (&[0, 1][..], &[3][..]));
        assert_eq!(parent.articles_of_subject(&g, s), (EMPTY, &[3][..]));
        assert_eq!(parent.articles_of_subject(&g, 1), (&[0, 1][..], EMPTY));
        assert_eq!(parent.author_of(&g, 4), None);
    }
}
