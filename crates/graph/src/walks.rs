//! Truncated random walks over the News-HSN — the corpus generator for
//! the DeepWalk baseline.

use crate::{HetGraph, NodeRef, NodeType};
use rand::seq::SliceRandom;
use rand::Rng;

/// Random-walk parameters (DeepWalk's γ walks of length t per node).
#[derive(Debug, Clone, Copy)]
pub struct WalkConfig {
    /// Walks started from each node (γ).
    pub walks_per_node: usize,
    /// Maximum walk length in nodes (t); walks stop early at dead ends.
    pub walk_length: usize,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self { walks_per_node: 10, walk_length: 40 }
    }
}

/// Generates uniform random walks from every node of every type.
///
/// Each walk is a sequence of **global node ids** (see
/// [`HetGraph::global_id`]); isolated nodes yield length-1 walks so every
/// node appears in the corpus at least once. Start nodes are shuffled per
/// pass, as in the reference DeepWalk implementation.
pub fn generate_walks(graph: &HetGraph, config: &WalkConfig, rng: &mut impl Rng) -> Vec<Vec<usize>> {
    assert!(config.walk_length >= 1, "generate_walks: walk_length must be >= 1");
    let mut starts: Vec<NodeRef> = Vec::with_capacity(graph.n_nodes());
    for ty in NodeType::ALL {
        let count = match ty {
            NodeType::Article => graph.n_articles(),
            NodeType::Creator => graph.n_creators(),
            NodeType::Subject => graph.n_subjects(),
        };
        starts.extend((0..count).map(|idx| NodeRef { ty, idx }));
    }

    let mut walks = Vec::with_capacity(starts.len() * config.walks_per_node);
    for _ in 0..config.walks_per_node {
        starts.shuffle(rng);
        for &start in &starts {
            let mut walk = Vec::with_capacity(config.walk_length);
            let mut current = start;
            walk.push(graph.global_id(current));
            for _ in 1..config.walk_length {
                // `graph.neighbors` is a borrowed CSR slice, so the walk
                // inner loop allocates nothing.
                let Some(&next) = graph.neighbors(current).choose(rng) else {
                    break;
                };
                walk.push(graph.global_id(next));
                current = next;
            }
            walks.push(walk);
        }
    }
    walks
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn line_graph() -> HetGraph {
        // creator0 - article0 - subject0: a path of three nodes.
        let mut g = HetGraph::new(1, 1, 1);
        g.set_author(0, 0);
        g.add_subject_link(0, 0);
        g
    }

    #[test]
    fn walk_count_and_length_bounds() {
        let g = line_graph();
        let cfg = WalkConfig { walks_per_node: 3, walk_length: 5 };
        let mut rng = StdRng::seed_from_u64(1);
        let walks = generate_walks(&g, &cfg, &mut rng);
        assert_eq!(walks.len(), 3 * g.n_nodes());
        assert!(walks.iter().all(|w| w.len() <= 5 && !w.is_empty()));
    }

    #[test]
    fn walks_follow_edges() {
        let g = line_graph();
        let cfg = WalkConfig { walks_per_node: 2, walk_length: 6 };
        let mut rng = StdRng::seed_from_u64(2);
        for walk in generate_walks(&g, &cfg, &mut rng) {
            for pair in walk.windows(2) {
                let from = g.from_global_id(pair[0]);
                let to = g.from_global_id(pair[1]);
                assert!(
                    g.neighbors(from).contains(&to),
                    "walk step {from:?} -> {to:?} is not an edge"
                );
            }
        }
    }

    #[test]
    fn isolated_nodes_get_singleton_walks() {
        let g = HetGraph::new(1, 1, 1); // no edges at all
        let cfg = WalkConfig { walks_per_node: 1, walk_length: 4 };
        let mut rng = StdRng::seed_from_u64(3);
        let walks = generate_walks(&g, &cfg, &mut rng);
        assert_eq!(walks.len(), 3);
        assert!(walks.iter().all(|w| w.len() == 1));
    }

    #[test]
    fn every_node_appears_in_corpus() {
        let g = line_graph();
        let cfg = WalkConfig { walks_per_node: 1, walk_length: 2 };
        let mut rng = StdRng::seed_from_u64(4);
        let walks = generate_walks(&g, &cfg, &mut rng);
        let mut seen = vec![false; g.n_nodes()];
        for walk in &walks {
            for &id in walk {
                seen[id] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn deterministic_under_seed() {
        let g = line_graph();
        let cfg = WalkConfig::default();
        let w1 = generate_walks(&g, &cfg, &mut StdRng::seed_from_u64(9));
        let w2 = generate_walks(&g, &cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(w1, w2);
    }

    #[test]
    #[should_panic(expected = "walk_length must be >= 1")]
    fn zero_length_rejected() {
        let g = line_graph();
        let cfg = WalkConfig { walks_per_node: 1, walk_length: 0 };
        let _ = generate_walks(&g, &cfg, &mut StdRng::seed_from_u64(0));
    }
}
