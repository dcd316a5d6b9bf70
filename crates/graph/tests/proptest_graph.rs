//! Property tests on News-HSN invariants: adjacency symmetry, global-id
//! bijection, walk validity, CSR ↔ edge-list agreement with the
//! pre-CSR adjacency-map semantics, neighbour-sampler determinism, and
//! persistence of the chunked arrays ingest generations share.

use fd_graph::{
    generate_walks, Chunked, HetGraph, NeighborSampler, NodeRef, NodeType, WalkConfig,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

/// The pre-CSR `neighbors()` semantics, reimplemented from the relation
/// accessors as an allocating reference: author port first for articles,
/// then insertion-order topic links; creators/subjects list their
/// articles in insertion order.
fn reference_neighbors(g: &HetGraph, node: NodeRef) -> Vec<NodeRef> {
    match node.ty {
        NodeType::Article => {
            let mut out = Vec::new();
            if let Some(c) = g.author_of(node.idx) {
                out.push(NodeRef { ty: NodeType::Creator, idx: c });
            }
            out.extend(
                g.subjects_of_article(node.idx)
                    .iter()
                    .map(|&s| NodeRef { ty: NodeType::Subject, idx: s }),
            );
            out
        }
        NodeType::Creator => g
            .articles_of_creator(node.idx)
            .iter()
            .map(|&a| NodeRef { ty: NodeType::Article, idx: a })
            .collect(),
        NodeType::Subject => g
            .articles_of_subject(node.idx)
            .iter()
            .map(|&a| NodeRef { ty: NodeType::Article, idx: a })
            .collect(),
    }
}

fn nodes_of(g: &HetGraph) -> Vec<NodeRef> {
    let mut out = Vec::with_capacity(g.n_nodes());
    for ty in NodeType::ALL {
        let count = match ty {
            NodeType::Article => g.n_articles(),
            NodeType::Creator => g.n_creators(),
            NodeType::Subject => g.n_subjects(),
        };
        out.extend((0..count).map(|idx| NodeRef { ty, idx }));
    }
    out
}

/// Builds a random well-formed News-HSN from a seed.
fn random_graph(seed: u64, n_articles: usize, n_creators: usize, n_subjects: usize) -> HetGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = HetGraph::new(n_articles, n_creators, n_subjects);
    for a in 0..n_articles {
        if n_creators > 0 {
            g.set_author(a, rng.gen_range(0..n_creators));
        }
        if n_subjects > 0 {
            let k = rng.gen_range(0..=n_subjects.min(4));
            let mut subjects: Vec<usize> = (0..n_subjects).collect();
            for _ in 0..k {
                let i = rng.gen_range(0..subjects.len());
                let s = subjects.swap_remove(i);
                g.add_subject_link(a, s);
            }
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn adjacency_is_symmetric(seed in any::<u64>(), a in 1usize..30, c in 1usize..10, s in 1usize..8) {
        let g = random_graph(seed, a, c, s);
        for ty in NodeType::ALL {
            let count = match ty {
                NodeType::Article => g.n_articles(),
                NodeType::Creator => g.n_creators(),
                NodeType::Subject => g.n_subjects(),
            };
            for idx in 0..count {
                let node = NodeRef { ty, idx };
                for &nb in g.neighbors(node) {
                    prop_assert!(
                        g.neighbors(nb).contains(&node),
                        "{node:?} -> {nb:?} not symmetric"
                    );
                }
            }
        }
    }

    #[test]
    fn global_id_is_a_bijection(seed in any::<u64>(), a in 1usize..30, c in 1usize..10, s in 1usize..8) {
        let g = random_graph(seed, a, c, s);
        let mut seen = vec![false; g.n_nodes()];
        for ty in NodeType::ALL {
            let count = match ty {
                NodeType::Article => g.n_articles(),
                NodeType::Creator => g.n_creators(),
                NodeType::Subject => g.n_subjects(),
            };
            for idx in 0..count {
                let id = g.global_id(NodeRef { ty, idx });
                prop_assert!(!seen[id], "global id {id} assigned twice");
                seen[id] = true;
                prop_assert_eq!(g.from_global_id(id), NodeRef { ty, idx });
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn link_counts_are_consistent(seed in any::<u64>(), a in 1usize..40, c in 1usize..10, s in 1usize..8) {
        let g = random_graph(seed, a, c, s);
        // Authorship: sum over creators equals assigned articles.
        let creator_side: usize = (0..g.n_creators()).map(|u| g.articles_of_creator(u).len()).sum();
        prop_assert_eq!(creator_side, g.n_authorship_links());
        // Topic links: both sides agree.
        let article_side: usize = (0..g.n_articles()).map(|n| g.subjects_of_article(n).len()).sum();
        let subject_side: usize = (0..g.n_subjects()).map(|t| g.articles_of_subject(t).len()).sum();
        prop_assert_eq!(article_side, subject_side);
        prop_assert_eq!(article_side, g.n_subject_links());
        // Edge list covers exactly every link once.
        prop_assert_eq!(g.edges_global().len(), g.n_authorship_links() + g.n_subject_links());
    }

    #[test]
    fn csr_matches_adjacency_map_semantics(seed in any::<u64>(), a in 1usize..40, c in 1usize..10, s in 1usize..8) {
        // The CSR slices must reproduce the pre-CSR allocating
        // `neighbors()` exactly: same neighbour sets, same order, and
        // the heterogeneous schema respected (creators/subjects only
        // touch articles).
        let g = random_graph(seed, a, c, s);
        for node in nodes_of(&g) {
            let csr = g.neighbors(node);
            let reference = reference_neighbors(&g, node);
            prop_assert_eq!(csr, reference.as_slice(), "{:?}", node);
            prop_assert_eq!(g.degree(node), csr.len());
            match node.ty {
                NodeType::Article => {
                    prop_assert!(csr.iter().all(|n| n.ty != NodeType::Article));
                }
                _ => prop_assert!(csr.iter().all(|n| n.ty == NodeType::Article)),
            }
        }
        // CSR edge coverage agrees with the edge list, endpoint by
        // endpoint: every (article, other) edge appears on both sides.
        for (ga, gb) in g.edges_global() {
            let (from, to) = (g.from_global_id(ga), g.from_global_id(gb));
            prop_assert!(g.neighbors(from).contains(&to));
            prop_assert!(g.neighbors(to).contains(&from));
        }
        let degree_sum: usize = nodes_of(&g).iter().map(|&n| g.degree(n)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edges_global().len());
    }

    #[test]
    fn csr_survives_serde_roundtrip(seed in any::<u64>(), a in 1usize..30, c in 1usize..8, s in 1usize..6) {
        // The serde representation is the append-side lists (unchanged
        // from before the CSR refactor); a deserialised graph must
        // rebuild an identical CSR view.
        let g = random_graph(seed, a, c, s);
        let json = serde_json::to_string(&g).expect("serialize");
        let back: HetGraph = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(back.n_nodes(), g.n_nodes());
        prop_assert_eq!(back.n_subject_links(), g.n_subject_links());
        for node in nodes_of(&g) {
            prop_assert_eq!(back.neighbors(node), g.neighbors(node));
        }
        // Re-serialising yields the same bytes: CSR is a pure view.
        prop_assert_eq!(serde_json::to_string(&back).expect("serialize"), json);
    }

    #[test]
    fn sampler_is_deterministic_and_bounded(
        seed in any::<u64>(),
        sampler_seed in any::<u64>(),
        salt in any::<u64>(),
        a in 1usize..40, c in 1usize..8, s in 1usize..6,
        fa in 0usize..6, fc in 0usize..6, fs in 0usize..6,
    ) {
        let g = random_graph(seed, a, c, s);
        let sampler = NeighborSampler::new(sampler_seed, [fa, fc, fs]);
        let mut first = Vec::new();
        let mut second = Vec::new();
        for node in nodes_of(&g) {
            sampler.sample_neighbors_into(&g, node, salt, &mut first);
            // Bounded by min(degree, fanout) and exact when under it.
            let cap = sampler.fanout(node.ty);
            prop_assert_eq!(first.len(), g.degree(node).min(cap));
            // A subset of the true neighbours, without replacement.
            let full = g.neighbors(node);
            prop_assert!(first.iter().all(|n| full.contains(n)));
            let mut dedup: Vec<_> = first.iter().map(|n| (n.ty as usize, n.idx)).collect();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), first.len());
            // Pure function of (seed, salt, node): a second draw after
            // other nodes were sampled in between must be identical.
            sampler.sample_neighbors_into(&g, node, salt, &mut second);
            prop_assert_eq!(&first, &second);
        }
    }

    /// A tree of versions, each a clone of a random earlier one plus a
    /// few writes (pushes, small and far indices): every version must
    /// keep answering exactly its own writes, whatever its descendants
    /// wrote into the chunks they shared.
    #[test]
    fn chunked_versions_stay_isolated(seed in any::<u64>(), versions in 1usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut all: Vec<(Chunked<u64>, BTreeMap<usize, u64>)> =
            vec![(Chunked::default(), BTreeMap::new())];
        for v in 0..versions {
            let (mut array, mut model) = all[rng.gen_range(0..all.len())].clone();
            for w in 0..rng.gen_range(1..6) {
                let index = match rng.gen_range(0..3) {
                    0 => array.len(),
                    1 => rng.gen_range(0..64),
                    _ => rng.gen_range(0..5_000),
                };
                let value = (v * 10 + w) as u64;
                array.set(index, value);
                model.insert(index, value);
            }
            all.push((array, model));
        }
        for (array, model) in &all {
            prop_assert_eq!(array.len(), model.keys().next_back().map_or(0, |&k| k + 1));
            for probe in 0..array.len() + 40 {
                prop_assert_eq!(array.get(probe), model.get(&probe));
            }
        }
    }

    #[test]
    fn walks_stay_on_edges(seed in any::<u64>(), a in 1usize..15, c in 1usize..6, s in 1usize..5) {
        let g = random_graph(seed, a, c, s);
        let cfg = WalkConfig { walks_per_node: 2, walk_length: 6 };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
        for walk in generate_walks(&g, &cfg, &mut rng) {
            prop_assert!(!walk.is_empty() && walk.len() <= 6);
            for pair in walk.windows(2) {
                let from = g.from_global_id(pair[0]);
                let to = g.from_global_id(pair[1]);
                prop_assert!(g.neighbors(from).contains(&to));
            }
        }
    }
}
