//! The node sets the diffusion runs over, and the neighbour lists it
//! reads there.
//!
//! FakeDetector is one computation over different node sets: full-graph
//! epochs and serving diffuse over the whole corpus graph, sampled
//! training over a k-hop minibatch subgraph, and the ingest reference
//! recompute over the overlay-extended graph. A [`Subgraph`] materialises
//! any of them in its own row indices; [`Adjacency`] is what a diffusion
//! round reads, served in place by the CSR graph and from the lists by a
//! [`Subgraph`].
//!
//! `TrainMode::Sampled` steps do not record the whole News-HSN on the
//! tape. Instead, each minibatch's training items become the *seed set*
//! of a k-hop expansion: every frontier node contributes its author port
//! plus a deterministic reservoir sample of its relation lists
//! (`fd_graph::NeighborSampler`), and the union of everything reached is
//! compacted into per-type local index spaces, so peak memory scales
//! with `batch_size x fanout^hops` instead of the corpus.
//!
//! Determinism: the sampler is a pure function of `(seed, salt, node)`
//! and the expansion visits nodes in discovery order, so a subgraph is a
//! pure function of `(graph, sampler, seeds, hops, salt)` — independent
//! of `FD_THREADS` and of any other subgraph built before it. That is
//! what keeps sampled runs bitwise-resumable from checkpoints.

use fd_graph::{GraphOverlay, HetGraph, NeighborSampler, NodeType};
use std::collections::HashMap;
use std::sync::Arc;

/// The four neighbour lists a diffusion round reads, in one node set's
/// row indices.
pub(crate) trait Adjacency: Sync {
    /// Nodes per slot, `[articles, creators, subjects]`.
    fn counts(&self) -> [usize; 3];
    /// Subjects article `a` indicates (its z port).
    fn subjects_of_article(&self, a: usize) -> &[usize];
    /// The author of article `a` (its t port).
    fn author_of(&self, a: usize) -> Option<usize>;
    /// Articles creator `u` wrote (its z port).
    fn articles_of_creator(&self, u: usize) -> &[usize];
    /// Articles indicating subject `s` (its z port).
    fn articles_of_subject(&self, s: usize) -> &[usize];
}

impl Adjacency for HetGraph {
    fn counts(&self) -> [usize; 3] {
        [self.n_articles(), self.n_creators(), self.n_subjects()]
    }
    fn subjects_of_article(&self, a: usize) -> &[usize] {
        HetGraph::subjects_of_article(self, a)
    }
    fn author_of(&self, a: usize) -> Option<usize> {
        HetGraph::author_of(self, a)
    }
    fn articles_of_creator(&self, u: usize) -> &[usize] {
        HetGraph::articles_of_creator(self, u)
    }
    fn articles_of_subject(&self, s: usize) -> &[usize] {
        HetGraph::articles_of_subject(self, s)
    }
}

/// A node set compacted to dense per-type row indices, with its
/// neighbour lists in those indices — ready for `Tape::mean_rows` /
/// `Tape::gather_rows`, which hold the shared lists instead of copies.
#[derive(Clone)]
pub(crate) struct Subgraph {
    /// Global entity indices per type slot; position = compacted row.
    pub nodes: [Vec<usize>; 3],
    /// Where each seed landed, `(slot, local row)`, in seed order.
    pub seed_rows: Vec<(usize, usize)>,
    /// Local article → local subject rows.
    pub subjects_of_article: Arc<Vec<Vec<usize>>>,
    /// Local article → local creator row (author port; `None` when the
    /// author was not reached — only possible for frontier-edge nodes).
    pub author: Vec<Option<usize>>,
    /// Local creator → local article rows.
    pub articles_of_creator: Arc<Vec<Vec<usize>>>,
    /// Local subject → local article rows.
    pub articles_of_subject: Arc<Vec<Vec<usize>>>,
}

impl Subgraph {
    /// The whole corpus graph: every node in index order, complete lists.
    pub fn whole(graph: &HetGraph) -> Self {
        Self::extended(&GraphOverlay::new(graph), graph)
    }

    /// The overlay-extended graph (base corpus plus ingested nodes) in
    /// combined indices. A creator's or subject's list is its base CSR
    /// slice followed by the overlay's extras, in ingestion order — the
    /// order a from-scratch rebuild would use.
    pub fn extended(overlay: &GraphOverlay, graph: &HetGraph) -> Self {
        let [n_articles, n_creators, n_subjects] = overlay.counts();
        let joined = |(base, extra): (&[usize], &[usize])| [base, extra].concat();
        Self {
            nodes: overlay.counts().map(|n| (0..n).collect()),
            seed_rows: Vec::new(),
            subjects_of_article: Arc::new(
                (0..n_articles).map(|a| overlay.subjects_of_article(graph, a).to_vec()).collect(),
            ),
            author: (0..n_articles).map(|a| overlay.author_of(graph, a)).collect(),
            articles_of_creator: Arc::new(
                (0..n_creators).map(|u| joined(overlay.articles_of_creator(graph, u))).collect(),
            ),
            articles_of_subject: Arc::new(
                (0..n_subjects).map(|s| joined(overlay.articles_of_subject(graph, s))).collect(),
            ),
        }
    }

    /// Compacted nodes across all three types.
    pub fn n_nodes(&self) -> usize {
        self.nodes.iter().map(Vec::len).sum()
    }

    /// Sampled directed adjacency entries (the per-step gather volume).
    pub fn n_sampled_edges(&self) -> usize {
        let lists = |l: &[Vec<usize>]| l.iter().map(Vec::len).sum::<usize>();
        lists(&self.subjects_of_article)
            + self.author.iter().flatten().count()
            + lists(&self.articles_of_creator)
            + lists(&self.articles_of_subject)
    }
}

impl Adjacency for Subgraph {
    fn counts(&self) -> [usize; 3] {
        std::array::from_fn(|slot| self.nodes[slot].len())
    }
    fn subjects_of_article(&self, a: usize) -> &[usize] {
        &self.subjects_of_article[a]
    }
    fn author_of(&self, a: usize) -> Option<usize> {
        self.author[a]
    }
    fn articles_of_creator(&self, u: usize) -> &[usize] {
        &self.articles_of_creator[u]
    }
    fn articles_of_subject(&self, s: usize) -> &[usize] {
        &self.articles_of_subject[s]
    }
}

/// Adds `(slot, idx)` to the compaction if unseen, queueing it for the
/// next expansion hop; returns its local row either way.
fn intern(
    nodes: &mut [Vec<usize>; 3],
    local_of: &mut [HashMap<usize, usize>; 3],
    next_frontier: &mut Vec<(usize, usize)>,
    slot: usize,
    idx: usize,
) -> usize {
    if let Some(&local) = local_of[slot].get(&idx) {
        return local;
    }
    let local = nodes[slot].len();
    nodes[slot].push(idx);
    local_of[slot].insert(idx, local);
    next_frontier.push((slot, idx));
    local
}

/// Builds the sampled `hops`-hop subgraph around `seeds`.
///
/// Expansion relations mirror the diffusion data flow: an article pulls
/// its author plus a sampled subset of its subjects; creators and
/// subjects pull sampled subsets of their articles. Nodes discovered on
/// the final hop keep whatever sampled neighbours happen to be inside
/// the node set (often none) — their state then sees a truncated
/// neighbourhood, the standard GraphSAGE-style approximation at the
/// receptive-field boundary.
pub(crate) fn sample_subgraph(
    graph: &HetGraph,
    sampler: &NeighborSampler,
    seeds: &[(NodeType, usize)],
    hops: usize,
    salt: u64,
) -> Subgraph {
    let mut nodes: [Vec<usize>; 3] = Default::default();
    let mut local_of: [HashMap<usize, usize>; 3] = Default::default();
    let mut frontier: Vec<(usize, usize)> = Vec::new();

    let seed_rows: Vec<(usize, usize)> = seeds
        .iter()
        .map(|&(ty, idx)| {
            let slot = ty.slot();
            (slot, intern(&mut nodes, &mut local_of, &mut frontier, slot, idx))
        })
        .collect();

    let mut buf: Vec<usize> = Vec::new();
    let mut current = std::mem::take(&mut frontier);
    for _hop in 0..hops {
        if current.is_empty() {
            break;
        }
        for &(slot, idx) in &current {
            match slot {
                0 => {
                    if let Some(u) = graph.author_of(idx) {
                        intern(&mut nodes, &mut local_of, &mut frontier, 1, u);
                    }
                    sampler.sample_list_into(
                        NodeType::Article,
                        idx,
                        graph.subjects_of_article(idx),
                        salt,
                        &mut buf,
                    );
                    for &s in &buf {
                        intern(&mut nodes, &mut local_of, &mut frontier, 2, s);
                    }
                }
                1 => {
                    sampler.sample_list_into(
                        NodeType::Creator,
                        idx,
                        graph.articles_of_creator(idx),
                        salt,
                        &mut buf,
                    );
                    for &a in &buf {
                        intern(&mut nodes, &mut local_of, &mut frontier, 0, a);
                    }
                }
                _ => {
                    sampler.sample_list_into(
                        NodeType::Subject,
                        idx,
                        graph.articles_of_subject(idx),
                        salt,
                        &mut buf,
                    );
                    for &a in &buf {
                        intern(&mut nodes, &mut local_of, &mut frontier, 0, a);
                    }
                }
            }
        }
        current = std::mem::take(&mut frontier);
    }

    // Local adjacency over the final node set. The sampler is a pure
    // function of (seed, salt, node), so re-drawing here reproduces the
    // exact lists the expansion followed; lookups drop targets outside
    // the node set, which only happens for final-hop nodes.
    let mut subjects_of_article = Vec::with_capacity(nodes[0].len());
    let mut author = Vec::with_capacity(nodes[0].len());
    for &a in &nodes[0] {
        author.push(graph.author_of(a).and_then(|u| local_of[1].get(&u).copied()));
        sampler.sample_list_into(
            NodeType::Article,
            a,
            graph.subjects_of_article(a),
            salt,
            &mut buf,
        );
        subjects_of_article
            .push(buf.iter().filter_map(|s| local_of[2].get(s).copied()).collect());
    }
    let mut articles_of_creator = Vec::with_capacity(nodes[1].len());
    for &u in &nodes[1] {
        sampler.sample_list_into(
            NodeType::Creator,
            u,
            graph.articles_of_creator(u),
            salt,
            &mut buf,
        );
        articles_of_creator
            .push(buf.iter().filter_map(|a| local_of[0].get(a).copied()).collect());
    }
    let mut articles_of_subject = Vec::with_capacity(nodes[2].len());
    for &s in &nodes[2] {
        sampler.sample_list_into(
            NodeType::Subject,
            s,
            graph.articles_of_subject(s),
            salt,
            &mut buf,
        );
        articles_of_subject
            .push(buf.iter().filter_map(|a| local_of[0].get(a).copied()).collect());
    }

    Subgraph {
        nodes,
        seed_rows,
        subjects_of_article: Arc::new(subjects_of_article),
        author,
        articles_of_creator: Arc::new(articles_of_creator),
        articles_of_subject: Arc::new(articles_of_subject),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_data::{generate, GeneratorConfig};

    fn graph() -> fd_graph::HetGraph {
        generate(&GeneratorConfig::politifact().scaled(0.02), 11).graph
    }

    fn seeds(n: usize) -> Vec<(NodeType, usize)> {
        (0..n).map(|i| (NodeType::Article, i * 3)).collect()
    }

    #[test]
    fn subgraph_is_deterministic() {
        let g = graph();
        // Fan-out 1 forces real selection pressure (most relation lists
        // are longer), so the salt-variation assert below is meaningful.
        let sampler = NeighborSampler::new(5, [1, 1, 1]);
        let a = sample_subgraph(&g, &sampler, &seeds(8), 2, 7);
        let b = sample_subgraph(&g, &sampler, &seeds(8), 2, 7);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.seed_rows, b.seed_rows);
        assert_eq!(a.subjects_of_article, b.subjects_of_article);
        assert_eq!(a.author, b.author);
        assert_eq!(a.articles_of_creator, b.articles_of_creator);
        assert_eq!(a.articles_of_subject, b.articles_of_subject);
        // A different salt reshuffles the sampled neighbourhood.
        let c = sample_subgraph(&g, &sampler, &seeds(8), 2, 8);
        assert_ne!(
            (&a.nodes, &a.subjects_of_article),
            (&c.nodes, &c.subjects_of_article),
            "salt must vary the sample"
        );
    }

    #[test]
    fn seeds_are_compacted_first_and_dedup() {
        let g = graph();
        let sampler = NeighborSampler::new(5, [4, 4, 4]);
        let mut s = seeds(4);
        s.push(s[0]); // duplicate seed maps to the same local row
        let sub = sample_subgraph(&g, &sampler, &s, 1, 0);
        assert_eq!(sub.seed_rows.len(), 5);
        assert_eq!(sub.seed_rows[4], sub.seed_rows[0]);
        for (k, &(slot, local)) in sub.seed_rows[..4].iter().enumerate() {
            assert_eq!(slot, 0);
            assert_eq!(sub.nodes[0][local], k * 3, "seed {k} must keep its global idx");
        }
    }

    #[test]
    fn adjacency_is_fanout_bounded_and_in_local_range(){
        let g = graph();
        let fanout = 3;
        let sampler = NeighborSampler::new(9, [fanout; 3]);
        let sub = sample_subgraph(&g, &sampler, &seeds(10), 2, 1);
        let check = |lists: &[Vec<usize>], target_count: usize| {
            for l in lists {
                assert!(l.len() <= fanout, "list over fanout: {}", l.len());
                assert!(l.iter().all(|&t| t < target_count), "local idx out of range");
            }
        };
        check(&sub.subjects_of_article, sub.nodes[2].len());
        check(&sub.articles_of_creator, sub.nodes[0].len());
        check(&sub.articles_of_subject, sub.nodes[0].len());
        for a in sub.author.iter().flatten() {
            assert!(*a < sub.nodes[1].len());
        }
        assert!(sub.n_nodes() >= 10);
        assert!(sub.n_sampled_edges() > 0);
    }

    #[test]
    fn interior_nodes_see_their_full_sampled_lists() {
        // Every node discovered before the final hop had its sampled
        // targets interned, so its local list must have the sampled
        // length exactly (no boundary truncation).
        let g = graph();
        let sampler = NeighborSampler::new(2, [4, 4, 4]);
        let s = seeds(6);
        let sub = sample_subgraph(&g, &sampler, &s, 2, 3);
        let mut buf = Vec::new();
        // The seeds themselves are hop-0 (interior for hops >= 2).
        for (k, &(slot, local)) in sub.seed_rows.iter().enumerate() {
            assert_eq!(slot, 0);
            let global = s[k].1;
            sampler.sample_list_into(
                NodeType::Article,
                global,
                g.subjects_of_article(global),
                3,
                &mut buf,
            );
            assert_eq!(
                sub.subjects_of_article[local].len(),
                buf.len(),
                "seed {k} lost sampled subjects"
            );
            assert_eq!(sub.author[local].is_some(), g.author_of(global).is_some());
        }
    }

    #[test]
    fn huge_fanout_and_depth_cover_the_connected_component_exactly() {
        // With fanout >= max degree nothing is dropped: the subgraph is
        // the union of the seeds' k-hop balls and every interior list
        // equals the full relation list (reservoir keeps order when the
        // list is under the cap).
        let g = graph();
        let sampler = NeighborSampler::new(1, [usize::MAX; 3]);
        let s = vec![(NodeType::Article, 0)];
        let sub = sample_subgraph(&g, &sampler, &s, 2, 0);
        // Article 0's subjects and author, in order.
        let local_subjects: Vec<usize> =
            sub.subjects_of_article[0].iter().map(|&l| sub.nodes[2][l]).collect();
        assert_eq!(local_subjects, g.subjects_of_article(0));
        let author_global = sub.author[0].map(|l| sub.nodes[1][l]);
        assert_eq!(author_global, g.author_of(0));
        // Hop-1 creators' article lists are complete too.
        for (local_u, &u) in sub.nodes[1].iter().enumerate() {
            let got: Vec<usize> =
                sub.articles_of_creator[local_u].iter().map(|&l| sub.nodes[0][l]).collect();
            assert_eq!(got, g.articles_of_creator(u), "creator {u}");
        }
    }

    #[test]
    fn zero_hops_is_just_the_seed_set() {
        let g = graph();
        let sampler = NeighborSampler::new(0, [4; 3]);
        let sub = sample_subgraph(&g, &sampler, &seeds(5), 0, 0);
        assert_eq!(sub.n_nodes(), 5);
        assert_eq!(sub.nodes[1].len() + sub.nodes[2].len(), 0);
        assert!(sub.subjects_of_article.iter().all(Vec::is_empty));
        assert!(sub.author.iter().all(Option::is_none));
    }
}
