//! The News-Augmented Heterogeneous Social Network (News-HSN).
//!
//! Definition 2.4 of the paper: `G = (V, E)` where
//! `V = U ∪ N ∪ S` (creators, articles, subjects) and
//! `E = E_{u,n} ∪ E_{n,s}` (authorship links and topic-indication links).
//!
//! This crate stores that structure ([`HetGraph`]), answers the adjacency
//! queries the diffusion model and label propagation need, generates the
//! truncated random walks DeepWalk consumes, provides an alias-method
//! sampler for LINE's edge sampling, and computes the degree statistics
//! behind Fig 1(a) (power-law fit of the creator-article distribution).
//!
//! ```
//! use fd_graph::{HetGraph, NodeRef, NodeType};
//!
//! // 2 articles, 1 creator, 2 subjects.
//! let mut g = HetGraph::new(2, 1, 2);
//! g.set_author(0, 0);
//! g.set_author(1, 0);
//! g.add_subject_link(0, 0);
//! g.add_subject_link(0, 1);
//! g.add_subject_link(1, 1);
//! assert_eq!(g.articles_of_creator(0), &[0, 1]);
//! assert_eq!(g.subjects_of_article(0), &[0, 1]);
//! assert_eq!(g.degree(NodeRef { ty: NodeType::Subject, idx: 1 }), 2);
//! ```

mod alias;
mod chunked;
mod hetgraph;
mod overlay;
mod sample;
mod stats;
mod walks;

pub use alias::AliasTable;
pub use chunked::Chunked;
pub use hetgraph::{HetGraph, NodeRef, NodeType};
pub use overlay::GraphOverlay;
pub use sample::NeighborSampler;
pub use stats::{degree_histogram, fit_power_law, DegreeStats, PowerLawFit};
pub use walks::{generate_walks, WalkConfig};
