//! Typed node references and the heterogeneous graph itself.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The three node categories of a News-HSN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeType {
    /// A news article (set `N` in the paper).
    Article,
    /// A news creator (set `U`).
    Creator,
    /// A news subject (set `S`).
    Subject,
}

impl NodeType {
    /// All three types, in the canonical order used for global indexing.
    pub const ALL: [NodeType; 3] = [NodeType::Article, NodeType::Creator, NodeType::Subject];

    /// This type's position in [`NodeType::ALL`]: the index of its slot
    /// in every per-type `[_; 3]` array.
    pub const fn slot(self) -> usize {
        match self {
            NodeType::Article => 0,
            NodeType::Creator => 1,
            NodeType::Subject => 2,
        }
    }
}

/// A typed node reference: node `idx` within its type's index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeRef {
    /// Node category.
    pub ty: NodeType,
    /// Index within the category (0-based).
    pub idx: usize,
}

/// Finalised CSR view of the undirected typed adjacency: one
/// offset/target array pair per node type, targets in the exact order the
/// old per-call `neighbors()` used to materialise (author port first for
/// articles, then topic links in insertion order).
///
/// Built once from the append-side adjacency logs and cached; any
/// mutation invalidates the cache. `offsets[ty]` has `count(ty) + 1`
/// entries so the neighbour list of node `i` is
/// `targets[ty][offsets[ty][i]..offsets[ty][i + 1]]` — a borrowed slice,
/// no per-call allocation — and degree is an O(1) offset difference.
#[derive(Debug, Clone, Default)]
struct NeighborCsr {
    offsets: [Vec<usize>; 3],
    targets: [Vec<NodeRef>; 3],
}

impl NeighborCsr {
    fn build(g: &HetGraph) -> Self {
        let mut csr = NeighborCsr::default();

        // Articles: author port (when assigned) then subjects in
        // insertion order — the schema order the diffusion ports rely on.
        let slot = NodeType::Article as usize;
        let mut offsets = Vec::with_capacity(g.n_articles + 1);
        let mut targets =
            Vec::with_capacity(g.n_authorship_links() + g.n_subject_links());
        offsets.push(0);
        for a in 0..g.n_articles {
            if g.author[a] != UNSET {
                targets.push(NodeRef { ty: NodeType::Creator, idx: g.author[a] });
            }
            targets.extend(
                g.article_subjects[a]
                    .iter()
                    .map(|&s| NodeRef { ty: NodeType::Subject, idx: s }),
            );
            offsets.push(targets.len());
        }
        csr.offsets[slot] = offsets;
        csr.targets[slot] = targets;

        // Creators and subjects: articles in insertion order.
        for (slot, lists, ty) in [
            (NodeType::Creator as usize, &g.creator_articles, NodeType::Article),
            (NodeType::Subject as usize, &g.subject_articles, NodeType::Article),
        ] {
            let mut offsets = Vec::with_capacity(lists.len() + 1);
            let mut targets = Vec::with_capacity(lists.iter().map(Vec::len).sum());
            offsets.push(0);
            for list in lists {
                targets.extend(list.iter().map(|&a| NodeRef { ty, idx: a }));
                offsets.push(targets.len());
            }
            csr.offsets[slot] = offsets;
            csr.targets[slot] = targets;
        }
        csr
    }

    fn slice(&self, node: NodeRef) -> &[NodeRef] {
        let slot = node.ty as usize;
        let offsets = &self.offsets[slot];
        &self.targets[slot][offsets[node.idx]..offsets[node.idx + 1]]
    }
}

/// The News-HSN: articles, creators and subjects with authorship and
/// topic-indication links.
///
/// Structure is append-only: nodes are fixed at construction, links are
/// added afterwards. Adjacency lists are kept sorted by insertion order
/// (generation order), which downstream code relies on for determinism.
///
/// Reads go through a CSR (compressed sparse row) view — typed
/// offset/target arrays built lazily on first query and invalidated by
/// mutation — so [`HetGraph::neighbors`] returns a borrowed slice with no
/// per-call allocation and [`HetGraph::degree`] is an O(1) offset
/// difference. The append-side lists double as the (unchanged) serde
/// representation, so corpora serialised before the CSR refactor load
/// bit-for-bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HetGraph {
    n_articles: usize,
    n_creators: usize,
    n_subjects: usize,
    /// `author[a]` = creator of article `a` (every article has exactly one
    /// creator once fully built; `usize::MAX` marks "unset").
    author: Vec<usize>,
    /// Articles written by each creator.
    creator_articles: Vec<Vec<usize>>,
    /// Subjects of each article.
    article_subjects: Vec<Vec<usize>>,
    /// Articles under each subject.
    subject_articles: Vec<Vec<usize>>,
    /// Lazily built CSR adjacency; never serialised, reset on mutation.
    #[serde(skip)]
    csr: OnceLock<NeighborCsr>,
}

const UNSET: usize = usize::MAX;

impl HetGraph {
    /// An edgeless graph with the given node counts.
    pub fn new(n_articles: usize, n_creators: usize, n_subjects: usize) -> Self {
        Self {
            n_articles,
            n_creators,
            n_subjects,
            author: vec![UNSET; n_articles],
            creator_articles: vec![Vec::new(); n_creators],
            article_subjects: vec![Vec::new(); n_articles],
            subject_articles: vec![Vec::new(); n_subjects],
            csr: OnceLock::new(),
        }
    }

    /// The finalised CSR view, building it on first use.
    fn csr(&self) -> &NeighborCsr {
        self.csr.get_or_init(|| NeighborCsr::build(self))
    }

    /// Forces the CSR adjacency to be built now (it is otherwise built
    /// lazily on the first [`HetGraph::neighbors`]/[`HetGraph::degree`]
    /// query). Useful to pay the one-off construction cost at load time
    /// instead of inside a benchmarked or latency-sensitive path.
    pub fn finalize(&self) {
        let _ = self.csr();
    }

    /// Number of articles.
    pub fn n_articles(&self) -> usize {
        self.n_articles
    }

    /// Number of creators.
    pub fn n_creators(&self) -> usize {
        self.n_creators
    }

    /// Number of subjects.
    pub fn n_subjects(&self) -> usize {
        self.n_subjects
    }

    /// Total node count across all three types.
    pub fn n_nodes(&self) -> usize {
        self.n_articles + self.n_creators + self.n_subjects
    }

    /// Number of authorship links (articles with a creator assigned).
    pub fn n_authorship_links(&self) -> usize {
        self.author.iter().filter(|&&c| c != UNSET).count()
    }

    /// Number of article–subject links.
    pub fn n_subject_links(&self) -> usize {
        self.article_subjects.iter().map(Vec::len).sum()
    }

    /// Assigns `creator` as the author of `article`.
    ///
    /// # Panics
    /// Panics on out-of-range indices or if the article already has an
    /// author — each article has exactly one creator (Section 4.2).
    pub fn set_author(&mut self, article: usize, creator: usize) {
        assert!(article < self.n_articles, "set_author: article {article} out of range");
        assert!(creator < self.n_creators, "set_author: creator {creator} out of range");
        assert_eq!(
            self.author[article], UNSET,
            "set_author: article {article} already has creator {}",
            self.author[article]
        );
        self.author[article] = creator;
        self.creator_articles[creator].push(article);
        self.csr = OnceLock::new();
    }

    /// Links `article` to `subject` (articles may have many subjects).
    ///
    /// # Panics
    /// Panics on out-of-range indices or a duplicate link.
    pub fn add_subject_link(&mut self, article: usize, subject: usize) {
        assert!(article < self.n_articles, "add_subject_link: article {article} out of range");
        assert!(subject < self.n_subjects, "add_subject_link: subject {subject} out of range");
        assert!(
            !self.article_subjects[article].contains(&subject),
            "add_subject_link: duplicate link {article} -> {subject}"
        );
        self.article_subjects[article].push(subject);
        self.subject_articles[subject].push(article);
        self.csr = OnceLock::new();
    }

    /// The creator of `article`, if assigned.
    pub fn author_of(&self, article: usize) -> Option<usize> {
        match self.author[article] {
            UNSET => None,
            c => Some(c),
        }
    }

    /// Articles written by `creator`, in insertion order.
    pub fn articles_of_creator(&self, creator: usize) -> &[usize] {
        &self.creator_articles[creator]
    }

    /// Subjects of `article`, in insertion order.
    pub fn subjects_of_article(&self, article: usize) -> &[usize] {
        &self.article_subjects[article]
    }

    /// Articles filed under `subject`, in insertion order.
    pub fn articles_of_subject(&self, subject: usize) -> &[usize] {
        &self.subject_articles[subject]
    }

    /// Undirected degree of a node (authorship + topic links combined) —
    /// an O(1) difference of adjacent CSR offsets.
    pub fn degree(&self, node: NodeRef) -> usize {
        let offsets = &self.csr().offsets[node.ty as usize];
        offsets[node.idx + 1] - offsets[node.idx]
    }

    /// Undirected neighbours of a node, respecting the heterogeneous
    /// schema (creators and subjects only touch articles).
    ///
    /// Returns a borrowed CSR slice — no allocation per call. For
    /// articles the author port (when assigned) comes first, then the
    /// topic links in insertion order.
    pub fn neighbors(&self, node: NodeRef) -> &[NodeRef] {
        self.csr().slice(node)
    }

    /// Maps a typed reference to a dense global id in
    /// `[0, n_nodes)` — articles first, then creators, then subjects.
    /// This is the indexing DeepWalk/LINE embeddings use.
    pub fn global_id(&self, node: NodeRef) -> usize {
        match node.ty {
            NodeType::Article => {
                assert!(node.idx < self.n_articles);
                node.idx
            }
            NodeType::Creator => {
                assert!(node.idx < self.n_creators);
                self.n_articles + node.idx
            }
            NodeType::Subject => {
                assert!(node.idx < self.n_subjects);
                self.n_articles + self.n_creators + node.idx
            }
        }
    }

    /// Inverse of [`HetGraph::global_id`].
    ///
    /// # Panics
    /// Panics when `id >= n_nodes`.
    pub fn from_global_id(&self, id: usize) -> NodeRef {
        if id < self.n_articles {
            NodeRef { ty: NodeType::Article, idx: id }
        } else if id < self.n_articles + self.n_creators {
            NodeRef { ty: NodeType::Creator, idx: id - self.n_articles }
        } else {
            assert!(id < self.n_nodes(), "from_global_id: {id} out of {}", self.n_nodes());
            NodeRef { ty: NodeType::Subject, idx: id - self.n_articles - self.n_creators }
        }
    }

    /// All undirected edges as global-id pairs `(article, other)` — the
    /// edge list LINE samples from.
    pub fn edges_global(&self) -> Vec<(usize, usize)> {
        let mut edges = Vec::with_capacity(self.n_authorship_links() + self.n_subject_links());
        for (a, &c) in self.author.iter().enumerate() {
            if c != UNSET {
                edges.push((
                    self.global_id(NodeRef { ty: NodeType::Article, idx: a }),
                    self.global_id(NodeRef { ty: NodeType::Creator, idx: c }),
                ));
            }
        }
        for (a, subjects) in self.article_subjects.iter().enumerate() {
            for &s in subjects {
                edges.push((
                    self.global_id(NodeRef { ty: NodeType::Article, idx: a }),
                    self.global_id(NodeRef { ty: NodeType::Subject, idx: s }),
                ));
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HetGraph {
        // Matches Figure 2 of the paper: 3 creators, 4 articles, 3 subjects.
        let mut g = HetGraph::new(4, 3, 3);
        g.set_author(0, 0);
        g.set_author(1, 1);
        g.set_author(2, 1);
        g.set_author(3, 2);
        g.add_subject_link(0, 0);
        g.add_subject_link(1, 0);
        g.add_subject_link(1, 1);
        g.add_subject_link(2, 2);
        g.add_subject_link(3, 2);
        g
    }

    #[test]
    fn counts() {
        let g = sample();
        assert_eq!(g.n_nodes(), 10);
        assert_eq!(g.n_authorship_links(), 4);
        assert_eq!(g.n_subject_links(), 5);
    }

    #[test]
    fn authorship_is_one_to_many() {
        let g = sample();
        assert_eq!(g.author_of(1), Some(1));
        assert_eq!(g.articles_of_creator(1), &[1, 2]);
        assert_eq!(g.articles_of_creator(0), &[0]);
    }

    #[test]
    #[should_panic(expected = "already has creator")]
    fn double_author_rejected() {
        let mut g = sample();
        g.set_author(0, 2);
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_subject_link_rejected() {
        let mut g = sample();
        g.add_subject_link(0, 0);
    }

    #[test]
    fn neighbors_respect_schema() {
        let g = sample();
        let n1 = g.neighbors(NodeRef { ty: NodeType::Article, idx: 1 });
        assert_eq!(n1.len(), 3);
        assert!(n1.contains(&NodeRef { ty: NodeType::Creator, idx: 1 }));
        assert!(n1.contains(&NodeRef { ty: NodeType::Subject, idx: 0 }));
        assert!(n1.contains(&NodeRef { ty: NodeType::Subject, idx: 1 }));

        let creator = g.neighbors(NodeRef { ty: NodeType::Creator, idx: 1 });
        assert!(creator.iter().all(|n| n.ty == NodeType::Article));
        let subject = g.neighbors(NodeRef { ty: NodeType::Subject, idx: 2 });
        assert_eq!(subject.len(), 2);
    }

    #[test]
    fn degree_matches_neighbor_count() {
        let g = sample();
        for ty in NodeType::ALL {
            let count = match ty {
                NodeType::Article => g.n_articles(),
                NodeType::Creator => g.n_creators(),
                NodeType::Subject => g.n_subjects(),
            };
            for idx in 0..count {
                let node = NodeRef { ty, idx };
                assert_eq!(g.degree(node), g.neighbors(node).len(), "{node:?}");
            }
        }
    }

    #[test]
    fn global_id_roundtrip() {
        let g = sample();
        for id in 0..g.n_nodes() {
            assert_eq!(g.global_id(g.from_global_id(id)), id);
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn global_id_bounds() {
        let g = sample();
        let _ = g.from_global_id(10);
    }

    #[test]
    fn edges_cover_both_link_types() {
        let g = sample();
        let edges = g.edges_global();
        assert_eq!(edges.len(), 9);
        // Every edge joins an article to a non-article.
        for (a, b) in edges {
            assert_eq!(g.from_global_id(a).ty, NodeType::Article);
            assert_ne!(g.from_global_id(b).ty, NodeType::Article);
        }
    }

    #[test]
    fn unassigned_author_is_none() {
        let g = HetGraph::new(1, 1, 0);
        assert_eq!(g.author_of(0), None);
        assert_eq!(g.degree(NodeRef { ty: NodeType::Article, idx: 0 }), 0);
        assert!(g.edges_global().is_empty());
    }

    #[test]
    fn csr_rebuilt_after_mutation() {
        let mut g = HetGraph::new(2, 1, 1);
        g.set_author(0, 0);
        // First read builds the CSR...
        assert_eq!(g.neighbors(NodeRef { ty: NodeType::Creator, idx: 0 }).len(), 1);
        // ...and any mutation afterwards must invalidate it.
        g.set_author(1, 0);
        assert_eq!(g.neighbors(NodeRef { ty: NodeType::Creator, idx: 0 }).len(), 2);
        g.add_subject_link(0, 0);
        assert_eq!(g.degree(NodeRef { ty: NodeType::Article, idx: 0 }), 2);
        assert_eq!(
            g.neighbors(NodeRef { ty: NodeType::Article, idx: 0 }),
            &[
                NodeRef { ty: NodeType::Creator, idx: 0 },
                NodeRef { ty: NodeType::Subject, idx: 0 },
            ]
        );
    }

    #[test]
    fn csr_offsets_are_consistent() {
        let g = sample();
        g.finalize();
        let mut total = 0;
        for ty in NodeType::ALL {
            let csr = g.csr();
            let (offsets, targets) = (&csr.offsets[ty as usize], &csr.targets[ty as usize]);
            let count = match ty {
                NodeType::Article => g.n_articles(),
                NodeType::Creator => g.n_creators(),
                NodeType::Subject => g.n_subjects(),
            };
            assert_eq!(offsets.len(), count + 1);
            assert_eq!(offsets[0], 0);
            assert_eq!(*offsets.last().unwrap(), targets.len());
            assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
            total += targets.len();
        }
        // Every undirected edge appears once per endpoint.
        assert_eq!(total, 2 * (g.n_authorship_links() + g.n_subject_links()));
    }

    #[test]
    fn serde_roundtrip() {
        let g = sample();
        let json = serde_json::to_string(&g).unwrap();
        let back: HetGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back.n_subject_links(), g.n_subject_links());
        assert_eq!(back.articles_of_creator(1), g.articles_of_creator(1));
    }
}
