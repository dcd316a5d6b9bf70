//! The benchmark's inputs, generated from `--seed` alone: the training
//! split, the serving request bodies, the online arrival schedule, and
//! the ingest sequence. Every function here is pure in its arguments.

use fd_core::ScoreRequest;
use fd_data::{CvSplits, TrainSets};
use fd_graph::{HetGraph, NodeType};
use fd_serve::{IngestArticle, IngestBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// χ² explicit-feature width, sequence length and vocabulary cap: the
/// `fdctl train` defaults, shared by every workload.
pub const EXPLICIT_DIM: usize = 60;
/// See [`EXPLICIT_DIM`].
pub const SEQ_LEN: usize = 12;
/// See [`EXPLICIT_DIM`].
pub const MAX_VOCAB: usize = 6000;

/// Distinct online request bodies; the stream cycles through them in a
/// seeded order, so the bitwise reference stays small.
pub const UNIQUE_READS: usize = 256;
/// Distinct 64-item bulk bodies.
pub const UNIQUE_BULK: usize = 8;
/// Items per bulk `predict_batch` request.
pub const BULK_ITEMS: usize = 64;

const WORDS: [&str; 48] = [
    "budget",
    "tax",
    "senate",
    "governor",
    "health",
    "care",
    "jobs",
    "economy",
    "immigration",
    "border",
    "deficit",
    "spending",
    "education",
    "schools",
    "crime",
    "police",
    "energy",
    "oil",
    "climate",
    "voters",
    "election",
    "campaign",
    "medicare",
    "social",
    "security",
    "veterans",
    "military",
    "trade",
    "wages",
    "unemployment",
    "insurance",
    "abortion",
    "guns",
    "federal",
    "state",
    "county",
    "percent",
    "million",
    "billion",
    "record",
    "claims",
    "says",
    "never",
    "always",
    "doubled",
    "cut",
    "raised",
    "report",
];

/// Per-node degrees of a served corpus: all the request generator needs
/// to know about the graph. Written by the preparation step beside the
/// corpus and bundle files.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GraphSummary {
    /// Articles in the base corpus.
    pub articles: usize,
    /// Articles written by each creator.
    pub creator_degree: Vec<usize>,
    /// Articles citing each subject.
    pub subject_degree: Vec<usize>,
}

impl GraphSummary {
    /// Reads the degrees off a corpus graph.
    pub fn of(graph: &HetGraph) -> Self {
        Self {
            articles: graph.n_articles(),
            creator_degree: (0..graph.n_creators())
                .map(|c| graph.articles_of_creator(c).len())
                .collect(),
            subject_degree: (0..graph.n_subjects())
                .map(|s| graph.articles_of_subject(s).len())
                .collect(),
        }
    }
}

/// The training split every workload uses: fold 0 of a seeded 10-fold
/// split per node type, as `fdctl train` draws it.
pub fn train_split(seed: u64, counts: [usize; 3]) -> TrainSets {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fold = |n: usize| CvSplits::new(n, 10.min(n), &mut rng).fold(0).0;
    TrainSets {
        articles: fold(counts[0]),
        creators: fold(counts[1]),
        subjects: fold(counts[2]),
    }
}

/// A new article scored (or ingested) with its neighbours named.
#[derive(Debug, Clone, PartialEq)]
pub struct NewArticle {
    /// Statement text.
    pub text: String,
    /// Authoring creator.
    pub creator: usize,
    /// Cited subjects, distinct.
    pub subjects: Vec<usize>,
}

impl NewArticle {
    fn json(&self) -> String {
        let subjects: Vec<String> = self.subjects.iter().map(usize::to_string).collect();
        format!(
            "{{\"text\":\"{}\",\"creator\":{},\"subjects\":[{}]}}",
            self.text,
            self.creator,
            subjects.join(",")
        )
    }

    /// The same request as fd-core takes it, for in-process scoring.
    pub fn score_request(&self) -> ScoreRequest {
        ScoreRequest {
            node_type: NodeType::Article,
            text: self.text.clone(),
            creator: Some(self.creator),
            subjects: self.subjects.clone(),
            articles: Vec::new(),
        }
    }

    /// A one-article `POST /v1/ingest` payload.
    pub fn ingest_batch(&self) -> IngestBatch {
        IngestBatch {
            articles: vec![IngestArticle {
                text: self.text.clone(),
                creator: self.creator,
                subjects: self.subjects.clone(),
            }],
            ..IngestBatch::default()
        }
    }
}

/// One online read.
#[derive(Debug, Clone, PartialEq)]
pub enum Read {
    /// By-id readout of a base article.
    ById(usize),
    /// Inductive scoring of a new article.
    Inductive(NewArticle),
}

impl Read {
    /// The `POST /v1/predict` body.
    pub fn body(&self) -> String {
        match self {
            Read::ById(id) => format!("{{\"id\":{id}}}"),
            Read::Inductive(article) => article.json(),
        }
    }
}

/// A `POST /v1/predict_batch` body.
pub fn batch_body(items: &[NewArticle]) -> String {
    let items: Vec<String> = items.iter().map(NewArticle::json).collect();
    format!("{{\"requests\":[{}]}}", items.join(","))
}

/// Everything a serving workload sends, fixed by the seed and the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Distinct online reads: every fourth a by-id readout, the rest
    /// inductive, citing by degree only creators and subjects no ingest
    /// cites.
    pub reads: Vec<Read>,
    /// Which read each online request sends, in arrival order.
    pub online: Vec<usize>,
    /// Distinct bulk batches of [`BULK_ITEMS`] inductive items.
    pub bulk: Vec<Vec<NewArticle>>,
    /// The ingest sequence: one article each, citing a write creator
    /// and 0–3 distinct write subjects, each drawn by degree.
    pub ingests: Vec<NewArticle>,
}

/// Nodes of one citation set, drawn in proportion to their degree: the
/// chance that an article of the generated corpus cites each of them.
#[derive(Debug, Clone, PartialEq)]
struct Weighted {
    nodes: Vec<usize>,
    /// Running degree total up to and including each node.
    cumulative: Vec<usize>,
}

impl Weighted {
    fn new(nodes: Vec<usize>, degrees: &[usize]) -> Self {
        let cumulative: Vec<usize> = nodes
            .iter()
            .scan(0, |total, &n| {
                *total += degrees[n];
                Some(*total)
            })
            .collect();
        assert!(
            cumulative.last().is_some_and(|&t| t > 0),
            "a citation set needs a node of positive degree"
        );
        Self { nodes, cumulative }
    }

    fn draw(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("checked in new");
        let x = rng.gen_range(0..total);
        self.nodes[self.cumulative.partition_point(|&c| c <= x)]
    }

    /// `count` distinct nodes, each drawn by degree.
    fn distinct(&self, count: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::with_capacity(count);
        while out.len() < count {
            let pick = self.draw(rng);
            if !out.contains(&pick) {
                out.push(pick);
            }
        }
        out
    }
}

/// Splits the nodes of one type into two disjoint citation sets by
/// alternating popularity rank (degree, highest first): ranks 0, 2, 4, …
/// for the ingests, ranks 1, 3, 5, … for the reads. Each set keeps the
/// corpus's degree profile, its heaviest nodes included.
fn split_by_rank(degrees: &[usize]) -> (Weighted, Weighted) {
    let mut order: Vec<usize> = (0..degrees.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(degrees[i]), i));
    let (mut write, mut read) = (Vec::new(), Vec::new());
    for (rank, node) in order.into_iter().enumerate() {
        if rank % 2 == 0 {
            write.push(node);
        } else {
            read.push(node);
        }
    }
    (Weighted::new(write, degrees), Weighted::new(read, degrees))
}

fn text(rng: &mut StdRng) -> String {
    let words = rng.gen_range(8..15);
    (0..words)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

impl Plan {
    /// Builds the plan for `online` arrivals and `ingests` writes.
    pub fn new(seed: u64, graph: &GraphSummary, online: usize, ingests: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let (write_creators, read_creators) = split_by_rank(&graph.creator_degree);
        let (write_subjects, read_subjects) = split_by_rank(&graph.subject_degree);

        let read_article = |rng: &mut StdRng| NewArticle {
            text: text(rng),
            creator: read_creators.draw(rng),
            subjects: {
                let n = rng.gen_range(1..4);
                read_subjects.distinct(n, rng)
            },
        };
        let reads = (0..UNIQUE_READS)
            .map(|i| {
                if i % 4 == 0 {
                    Read::ById(rng.gen_range(0..graph.articles))
                } else {
                    Read::Inductive(read_article(&mut rng))
                }
            })
            .collect();
        let online = (0..online)
            .map(|_| rng.gen_range(0..UNIQUE_READS))
            .collect();
        let bulk = (0..UNIQUE_BULK)
            .map(|_| (0..BULK_ITEMS).map(|_| read_article(&mut rng)).collect())
            .collect();
        let ingests = (0..ingests)
            .map(|_| NewArticle {
                text: text(&mut rng),
                creator: write_creators.draw(&mut rng),
                subjects: {
                    let n = rng.gen_range(0..4);
                    write_subjects.distinct(n, &mut rng)
                },
            })
            .collect();
        Plan {
            reads,
            online,
            bulk,
            ingests,
        }
    }
}

/// When online request `i` is due, relative to the stream's start:
/// `i / rate`, a constant rate with no dependence on how the system
/// is keeping up.
pub fn due(i: usize, rate_per_s: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate_per_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> GraphSummary {
        GraphSummary {
            articles: 5000,
            creator_degree: (0..800).map(|c| 1 + c % 13).collect(),
            subject_degree: (0..90).map(|s| 5 + (s * 37) % 300).collect(),
        }
    }

    #[test]
    fn the_plan_is_a_pure_function_of_the_seed() {
        let g = summary();
        assert_eq!(Plan::new(7, &g, 500, 120), Plan::new(7, &g, 500, 120));
        let (a, b) = (Plan::new(7, &g, 500, 120), Plan::new(8, &g, 500, 120));
        assert_ne!(a.reads, b.reads);
        assert_ne!(a.ingests, b.ingests);
        assert_ne!(a.online, b.online);
        let (s3, again, s4) = (
            train_split(3, [100, 40, 20]),
            train_split(3, [100, 40, 20]),
            train_split(4, [100, 40, 20]),
        );
        assert_eq!(
            (&s3.articles, &s3.creators, &s3.subjects),
            (&again.articles, &again.creators, &again.subjects)
        );
        assert_ne!(s3.articles, s4.articles);
    }

    #[test]
    fn the_arrival_schedule_is_a_constant_rate() {
        assert_eq!(due(0, 100.0), Duration::ZERO);
        assert_eq!(due(250, 100.0), Duration::from_millis(2500));
        assert_eq!(due(3, 40.0), Duration::from_millis(75));
    }

    #[test]
    fn reads_never_cite_what_the_ingests_cite() {
        let g = summary();
        let plan = Plan::new(11, &g, 100, 400);
        let written_creators: Vec<usize> = plan.ingests.iter().map(|a| a.creator).collect();
        let written_subjects: Vec<usize> = plan
            .ingests
            .iter()
            .flat_map(|a| a.subjects.clone())
            .collect();
        let inductive = plan
            .reads
            .iter()
            .filter_map(|r| match r {
                Read::Inductive(a) => Some(a),
                Read::ById(_) => None,
            })
            .chain(plan.bulk.iter().flatten());
        for article in inductive {
            assert!(!written_creators.contains(&article.creator));
            assert!(article
                .subjects
                .iter()
                .all(|s| !written_subjects.contains(s)));
            assert!((1..=3).contains(&article.subjects.len()));
        }
        for ingest in &plan.ingests {
            assert!(ingest.subjects.len() <= 3);
            let mut s = ingest.subjects.clone();
            s.dedup();
            assert_eq!(
                s.len(),
                ingest.subjects.len(),
                "cited subjects are distinct"
            );
        }
        assert_eq!(
            plan.reads
                .iter()
                .filter(|r| matches!(r, Read::ById(_)))
                .count(),
            64
        );
        assert!(plan.online.iter().all(|&i| i < UNIQUE_READS));
        assert!(plan.bulk.iter().all(|b| b.len() == BULK_ITEMS));
    }

    #[test]
    fn citation_sets_alternate_popularity_ranks() {
        // Node i has degree 10 * i, so popularity rank r is node 9 - r.
        let degrees: Vec<usize> = (0..10).map(|i| 10 * i).collect();
        let (write, read) = split_by_rank(&degrees);
        assert_eq!(write.nodes, vec![9, 7, 5, 3, 1]);
        assert_eq!(read.nodes, vec![8, 6, 4, 2, 0]);
        assert_eq!(read.cumulative, vec![80, 140, 180, 200, 200]);
    }

    #[test]
    fn citations_are_drawn_in_proportion_to_degree() {
        let degrees = [0, 100, 300, 0, 600];
        let set = Weighted::new(vec![0, 1, 2, 3, 4], &degrees);
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [0usize; 5];
        for _ in 0..20_000 {
            seen[set.draw(&mut rng)] += 1;
        }
        assert_eq!((seen[0], seen[3]), (0, 0), "degree 0 is never cited");
        for (node, share) in [(1, 0.1), (2, 0.3), (4, 0.6)] {
            let got = seen[node] as f64 / 20_000.0;
            assert!((got - share).abs() < 0.02, "node {node}: {got} vs {share}");
        }
        let picked = set.distinct(3, &mut rng);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 4]);
    }

    #[test]
    fn bodies_are_the_documented_wire_format() {
        let a = NewArticle {
            text: "tax cut".into(),
            creator: 3,
            subjects: vec![1, 4],
        };
        assert_eq!(Read::ById(9).body(), "{\"id\":9}");
        assert_eq!(
            Read::Inductive(a.clone()).body(),
            "{\"text\":\"tax cut\",\"creator\":3,\"subjects\":[1,4]}"
        );
        assert_eq!(
            batch_body(&[a.clone(), a]),
            "{\"requests\":[{\"text\":\"tax cut\",\"creator\":3,\"subjects\":[1,4]},\
             {\"text\":\"tax cut\",\"creator\":3,\"subjects\":[1,4]}]}"
        );
    }
}
