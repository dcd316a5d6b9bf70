//! End-to-end tests for `POST /v1/ingest`: attached nodes must score
//! within the documented delta bound of a full extended-graph
//! recompute, hostile payloads must map to 4xx without hurting the
//! server, generations sharing one overlay must stay isolated from
//! each other, reloads must restore the pristine bundle, and predict
//! traffic must never be dropped while ingests land.

use fd_core::{FakeDetector, FakeDetectorConfig, ScoreRequest, TrainedFakeDetector};
use fd_data::{
    generate, Corpus, CvSplits, ExperimentContext, ExplicitFeatures, GeneratorConfig, LabelMode,
    TokenizedCorpus, TrainSets,
};
use fd_graph::{GraphOverlay, NodeType};
use fd_serve::{
    HttpClient, IngestArticle, IngestBatch, IngestCreator, IngestReport, IngestSubject,
    ServeConfig, ServeModel, Server,
};
use fd_tensor::Matrix;
use fd_text::{encode_sequence, Tokenizer};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const EXPLICIT_DIM: usize = 30;
const SEQ_LEN: usize = 8;
const MAX_VOCAB: usize = 2000;

/// The documented fast-path guarantee: ingested-node scores within
/// 1e-5 of the full-graph recompute over the frozen feature pipeline
/// (see DESIGN.md "Incremental diffusion").
const DELTA_BOUND: f32 = 1e-5;

/// One tiny training run shared by every test in this binary.
fn parts() -> &'static (Corpus, String, TrainSets) {
    static PARTS: OnceLock<(Corpus, String, TrainSets)> = OnceLock::new();
    PARTS.get_or_init(|| {
        let seed = 7;
        let corpus = generate(&GeneratorConfig::politifact().scaled(0.01), seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let train = TrainSets {
            articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
            creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
            subjects: CvSplits::new(corpus.subjects.len(), 10, &mut rng).fold(0).0,
        };
        let tokenized = TokenizedCorpus::build(&corpus, SEQ_LEN, MAX_VOCAB);
        let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, EXPLICIT_DIM);
        let ctx = ExperimentContext {
            corpus: &corpus,
            tokenized: &tokenized,
            explicit: &explicit,
            train: &train,
            mode: LabelMode::Binary,
            seed,
        };
        let config = FakeDetectorConfig {
            epochs: 1,
            validation_fraction: 0.0,
            ..FakeDetectorConfig::default()
        };
        let trained = FakeDetector::new(config).fit(&ctx);
        (corpus, trained.to_json(), train)
    })
}

fn build_model() -> Arc<ServeModel> {
    let (corpus, trained_json, train) = parts();
    let trained = TrainedFakeDetector::from_json(trained_json).expect("weights round-trip");
    Arc::new(ServeModel::new(
        corpus.clone(),
        trained,
        train.clone(),
        LabelMode::Binary,
        EXPLICIT_DIM,
        SEQ_LEN,
        MAX_VOCAB,
    ))
}

fn start(config: &ServeConfig) -> (Server, String) {
    let server = Server::start(build_model(), config).expect("start server");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn ephemeral() -> ServeConfig {
    ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() }
}

fn client(addr: &str) -> HttpClient {
    let mut client = HttpClient::connect(addr).expect("connect");
    client.set_timeout(Duration::from_secs(30)).expect("timeout");
    client
}

fn post_ingest(addr: &str, batch: &IngestBatch) -> (u16, String) {
    let body = serde_json::to_string(batch).expect("serialize batch");
    client(addr).post("/v1/ingest", &body).expect("post ingest")
}

/// A mixed batch of `n_articles` articles (plus one new creator and one
/// new subject when `n_articles > 1`) citing a blend of base and
/// batch-new nodes. `counts` are the combined counts *before* the
/// batch.
fn make_batch(n_articles: usize, counts: (usize, usize, usize), tag: usize) -> IngestBatch {
    let (_, creators_n, subjects_n) = counts;
    let mut batch = IngestBatch::default();
    if n_articles > 1 {
        batch.creators.push(IngestCreator { profile: format!("prolific new pundit {tag}") });
        batch.subjects.push(IngestSubject { description: format!("emerging controversy {tag}") });
    }
    for j in 0..n_articles {
        // Odd articles cite the batch-new creator; every third also
        // indicates the batch-new subject (ids are assigned before the
        // articles attach, so `counts` is where the new ids start).
        let creator = if n_articles > 1 && j % 2 == 1 { creators_n } else { j % creators_n };
        let mut subjects = vec![j % subjects_n];
        if n_articles > 1 && j % 3 == 0 {
            subjects.push(subjects_n);
        }
        batch.articles.push(IngestArticle {
            text: format!("fresh claims {tag}-{j} about the budget deficit and medicare"),
            creator,
            subjects,
        });
    }
    batch
}

/// An in-process replica of the server's attach path over the frozen
/// feature pipeline, used to compute the full extended-graph recompute
/// the parity gate compares against.
struct Reference<'a> {
    ctx: ExperimentContext<'a>,
    trained: &'a TrainedFakeDetector,
    overlay: GraphOverlay,
    explicit_rows: [Vec<Vec<f32>>; 3],
    sequences: [Vec<Vec<usize>>; 3],
}

impl<'a> Reference<'a> {
    fn new(ctx: ExperimentContext<'a>, trained: &'a TrainedFakeDetector) -> Self {
        let overlay = GraphOverlay::new(&ctx.corpus.graph);
        Self {
            ctx,
            trained,
            overlay,
            explicit_rows: Default::default(),
            sequences: Default::default(),
        }
    }

    fn featurise(&mut self, slot: usize, ty: NodeType, text: &str) {
        let tokens = Tokenizer::default().tokenize(text);
        self.explicit_rows[slot]
            .push(self.ctx.explicit.featurise_tokens(ty, &tokens).row(0).to_vec());
        self.sequences[slot].push(encode_sequence(
            &tokens,
            &self.ctx.tokenized.vocab,
            self.ctx.tokenized.seq_len,
        ));
    }

    /// Attaches `batch` exactly as the server does: creators, then
    /// subjects, then articles.
    fn apply(&mut self, batch: &IngestBatch) {
        for creator in &batch.creators {
            self.overlay.add_creator();
            self.featurise(1, NodeType::Creator, &creator.profile);
        }
        for subject in &batch.subjects {
            self.overlay.add_subject();
            self.featurise(2, NodeType::Subject, &subject.description);
        }
        for article in &batch.articles {
            self.overlay.add_article(article.creator, &article.subjects).expect("valid article");
            self.featurise(0, NodeType::Article, &article.text);
        }
    }

    /// Final-round probabilities of every combined node, via the
    /// honest O(corpus) recompute over the extended graph.
    fn full_recompute_probabilities(&self) -> [Vec<Vec<f32>>; 3] {
        let new_explicit: [Matrix; 3] = std::array::from_fn(|slot| {
            let rows = &self.explicit_rows[slot];
            let mut m = Matrix::zeros(rows.len(), self.ctx.explicit.dim);
            for (k, row) in rows.iter().enumerate() {
                m.row_mut(k).copy_from_slice(row);
            }
            m
        });
        let history = self
            .trained
            .extended_states_rounds(&self.ctx, &self.overlay, &new_explicit, &self.sequences)
            .expect("extended recompute");
        let last = history.last().expect("at least one round");
        std::array::from_fn(|slot| {
            let ty = NodeType::ALL[slot];
            (0..last[slot].rows())
                .map(|i| self.trained.node_probabilities(ty, last[slot].row(i)))
                .collect()
        })
    }
}

fn assert_within_bound(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: class count");
    for (a, b) in got.iter().zip(want) {
        assert!(
            (a - b).abs() <= DELTA_BOUND,
            "{what}: |Δ| {} exceeds the documented {DELTA_BOUND} bound ({a} vs {b})",
            (a - b).abs()
        );
    }
}

/// Pulls the `"probabilities":[…]` array out of a predict response.
fn parse_probabilities(response: &str) -> Vec<f32> {
    response
        .split("\"probabilities\":[")
        .nth(1)
        .and_then(|s| s.split(']').next())
        .expect("probabilities in response")
        .split(',')
        .map(|v| v.trim().parse::<f32>().expect("float"))
        .collect()
}

#[test]
fn ingested_scores_match_full_recompute_across_batch_sizes() {
    let (corpus, trained_json, train) = parts();
    let trained = TrainedFakeDetector::from_json(trained_json).expect("weights");
    let tokenized = TokenizedCorpus::build(corpus, SEQ_LEN, MAX_VOCAB);
    let explicit = ExplicitFeatures::extract(corpus, &tokenized, train, EXPLICIT_DIM);
    let ctx = ExperimentContext {
        corpus,
        tokenized: &tokenized,
        explicit: &explicit,
        train,
        mode: LabelMode::Binary,
        seed: 0,
    };
    let mut reference = Reference::new(ctx, &trained);

    let (server, addr) = start(&ephemeral());
    let mut counts = build_model().corpus_sizes();
    // Sequential ingests of growing batch size — later batches stack on
    // the overlay the earlier ones created.
    for (tag, n_articles) in [1usize, 3, 8].into_iter().enumerate() {
        let batch = make_batch(n_articles, counts, tag);
        let (status, response) = post_ingest(&addr, &batch);
        assert_eq!(status, 200, "{response}");
        let report: IngestReport = serde_json::from_str(&response).expect("report json");
        assert_eq!(report.articles.len(), batch.articles.len());
        assert_eq!(report.creators.len(), batch.creators.len());
        assert!(
            report.affected_base_nodes > 0,
            "articles cite base nodes, so some base states must be recomputed"
        );

        reference.apply(&batch);
        let full = reference.full_recompute_probabilities();
        let per_slot =
            [(&report.articles, 0usize), (&report.creators, 1), (&report.subjects, 2)];
        for (nodes, slot) in per_slot {
            for node in nodes.iter() {
                assert_within_bound(
                    &node.probabilities,
                    &full[slot][node.id],
                    &format!("batch {tag} slot {slot} node {node_id}", node_id = node.id),
                );
                // The by-id readout must agree with what ingest reported.
                let ty = ["article", "creator", "subject"][slot];
                let body = format!("{{\"node_type\":\"{ty}\",\"id\":{}}}", node.id);
                let (status, response) =
                    client(&addr).post("/v1/predict", &body).expect("post");
                assert_eq!(status, 200, "{response}");
                assert_within_bound(
                    &parse_probabilities(&response),
                    &node.probabilities,
                    &format!("by-id readout of slot {slot} node {}", node.id),
                );
            }
        }

        counts = (report.articles_total, report.creators_total, report.subjects_total);
        // /healthz reports the grown combined graph.
        let (status, health) = client(&addr).get("/healthz").expect("get");
        assert_eq!(status, 200);
        assert!(
            health.contains(&format!("\"articles\":{}", counts.0)),
            "healthz must show combined counts: {health}"
        );
    }

    // Inductive requests may cite ingested nodes as neighbours.
    let body = format!(
        "{{\"text\":\"follow-up on the emerging controversy\",\"creator\":{},\"subjects\":[{}]}}",
        counts.1 - 1,
        counts.2 - 1
    );
    let (status, response) = client(&addr).post("/v1/predict", &body).expect("post");
    assert_eq!(status, 200, "{response}");
    server.shutdown();
}

#[test]
fn hostile_ingest_payloads_get_4xx_and_never_kill_the_server() {
    let config = ServeConfig { max_ingest_nodes: 4, ..ephemeral() };
    let (server, addr) = start(&config);
    let (_, creators_n, subjects_n) = build_model().corpus_sizes();

    // Malformed JSON.
    let (status, _) = client(&addr).post("/v1/ingest", "not json").expect("post");
    assert_eq!(status, 400);
    // Empty batch.
    let (status, response) = client(&addr).post("/v1/ingest", "{}").expect("post");
    assert_eq!(status, 400, "{response}");
    assert!(response.contains("empty"), "{response}");
    // Creator out of range.
    let batch = IngestBatch {
        articles: vec![IngestArticle { text: "x".into(), creator: creators_n + 7, subjects: vec![] }],
        ..IngestBatch::default()
    };
    let (status, response) = post_ingest(&addr, &batch);
    assert_eq!(status, 400, "{response}");
    assert!(response.contains("out of range"), "{response}");
    // Subject out of range.
    let batch = IngestBatch {
        articles: vec![IngestArticle {
            text: "x".into(),
            creator: 0,
            subjects: vec![subjects_n + 3],
        }],
        ..IngestBatch::default()
    };
    let (status, response) = post_ingest(&addr, &batch);
    assert_eq!(status, 400, "{response}");
    // Duplicate subject.
    let batch = IngestBatch {
        articles: vec![IngestArticle { text: "x".into(), creator: 0, subjects: vec![0, 0] }],
        ..IngestBatch::default()
    };
    let (status, response) = post_ingest(&addr, &batch);
    assert_eq!(status, 400, "{response}");
    assert!(response.contains("duplicate"), "{response}");
    // Batch over the node cap → 413.
    let batch = IngestBatch {
        creators: (0..5).map(|i| IngestCreator { profile: format!("c{i}") }).collect(),
        ..IngestBatch::default()
    };
    let (status, response) = post_ingest(&addr, &batch);
    assert_eq!(status, 413, "{response}");
    // Wrong method.
    let (status, _) = client(&addr).get("/v1/ingest").expect("get");
    assert_eq!(status, 405);

    // A failed attach must not leak partial state: the graph is
    // unchanged (a batch attaches atomically or not at all).
    let (status, health) = client(&addr).get("/healthz").expect("get");
    assert_eq!(status, 200);
    assert!(health.contains(&format!("\"creators\":{creators_n}")), "{health}");

    // By-id hostile variants on /v1/predict.
    let (status, response) =
        client(&addr).post("/v1/predict", "{\"id\":999999}").expect("post");
    assert_eq!(status, 404, "{response}");
    let (status, _) =
        client(&addr).post("/v1/predict", "{\"id\":0,\"text\":\"both\"}").expect("post");
    assert_eq!(status, 400);
    let (status, response) =
        client(&addr).post("/v1/predict", "{\"id\":0,\"creator\":0}").expect("post");
    assert_eq!(status, 400, "{response}");
    let (status, _) = client(&addr).post("/v1/predict", "{}").expect("post");
    assert_eq!(status, 400);
    // By-id inside predict_batch is rejected.
    let (status, response) = client(&addr)
        .post("/v1/predict_batch", "{\"requests\":[{\"id\":0}]}")
        .expect("post");
    assert_eq!(status, 400, "{response}");

    // After all of that a well-formed ingest still lands.
    let batch = IngestBatch {
        articles: vec![IngestArticle { text: "valid claim".into(), creator: 0, subjects: vec![0] }],
        ..IngestBatch::default()
    };
    let (status, response) = post_ingest(&addr, &batch);
    assert_eq!(status, 200, "{response}");
    server.shutdown();
}

/// Every answer a handle gives about its own graph, as raw bits: the
/// by-id readout of every node, then the inductive `requests`.
fn answers(model: &ServeModel, requests: &[ScoreRequest]) -> Vec<Vec<u32>> {
    let (articles, creators, subjects) = model.corpus_sizes();
    let sizes = [articles, creators, subjects];
    let bits = |p: Vec<f32>| p.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    let mut out = Vec::new();
    for (slot, ty) in NodeType::ALL.into_iter().enumerate() {
        for id in 0..sizes[slot] {
            out.push(bits(model.score_node(ty, id).expect("node in range")));
        }
    }
    out.extend(model.score(requests).expect("inductive scores").into_iter().map(bits));
    out
}

/// A serving handle over the shared corpus whose model diffuses
/// `rounds` rounds.
fn model_at(rounds: usize) -> ServeModel {
    let (corpus, _, train) = parts();
    let tokenized = TokenizedCorpus::build(corpus, SEQ_LEN, MAX_VOCAB);
    let explicit = ExplicitFeatures::extract(corpus, &tokenized, train, EXPLICIT_DIM);
    let ctx = ExperimentContext {
        corpus,
        tokenized: &tokenized,
        explicit: &explicit,
        train,
        mode: LabelMode::Binary,
        seed: 7,
    };
    let config = FakeDetectorConfig {
        epochs: 1,
        validation_fraction: 0.0,
        diffusion_rounds: rounds,
        ..FakeDetectorConfig::default()
    };
    let trained = FakeDetector::new(config).fit(&ctx);
    let (train, mode) = (train.clone(), LabelMode::Binary);
    ServeModel::new(corpus.clone(), trained, train, mode, EXPLICIT_DIM, SEQ_LEN, MAX_VOCAB)
}

/// One answer per new article: at L = 1, 2 and 3, `score` of an
/// article request returns the bits `ingest` reports for the same text,
/// creator and subjects, on a freshly loaded model and on a generation
/// that has ingested a batch whose new creator and subject it cites.
#[test]
fn inductive_article_score_is_bitwise_its_ingest_report() {
    let text = "fresh claim about the border and the budget";
    let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for rounds in 1..=3 {
        let fresh = model_at(rounds);
        let (grown, report) = fresh.ingest(&make_batch(3, fresh.corpus_sizes(), 0)).expect("ingest");
        let (new_creator, new_subject) = (report.creators[0].id, report.subjects[0].id);
        for (model, creator, subjects) in [(&fresh, 0, vec![0, 1]), (&grown, new_creator, vec![new_subject, 0])]
        {
            let request = ScoreRequest::article(text, Some(creator), subjects.clone());
            let scored = model.score(&[request]).expect("score").remove(0);
            let article = IngestArticle { text: text.into(), creator, subjects };
            let batch = IngestBatch { articles: vec![article], ..IngestBatch::default() };
            let (_, report) = model.ingest(&batch).expect("ingest the scored article");
            assert_eq!(
                bits(&scored),
                bits(&report.articles[0].probabilities),
                "L={rounds}, creator {creator}: {scored:?} vs {:?}",
                report.articles[0].probabilities
            );
        }
    }
}

/// A handle pinned before 200 further ingests answers exactly as it
/// did: later generations share its chunks but never write them. The
/// later ingests re-cite base hubs and nodes ingested before the pin,
/// so they extend neighbour lists and rows the pinned handle reads.
#[test]
fn pinned_handle_survives_200_later_ingests_bitwise() {
    let mut model = build_model();
    let mut counts = model.corpus_sizes();
    for tag in 0..3 {
        let (next, report) = model.ingest(&make_batch(3, counts, tag)).expect("ingest");
        counts = (report.articles_total, report.creators_total, report.subjects_total);
        model = Arc::new(next);
    }
    let pinned = Arc::clone(&model);
    let pinned_sizes = pinned.corpus_sizes();
    let requests: Vec<ScoreRequest> = [(0, vec![0, 1]), (counts.1 - 1, vec![counts.2 - 1, 0])]
        .into_iter()
        .map(|(creator, subjects)| {
            ScoreRequest::article("follow-up on the budget controversy", Some(creator), subjects)
        })
        .collect();
    let before = answers(&pinned, &requests);

    for tag in 3..203 {
        let mut batch = IngestBatch::default();
        if tag % 10 == 0 {
            batch.creators.push(IngestCreator { profile: format!("late pundit {tag}") });
            batch.subjects.push(IngestSubject { description: format!("late topic {tag}") });
        }
        let subjects = vec![(tag * 5) % counts.2, counts.2 - 1 - tag % 2];
        let subjects = if subjects[0] == subjects[1] { vec![subjects[0]] } else { subjects };
        batch.articles.push(IngestArticle {
            text: format!("claim {tag} about medicare and the deficit"),
            creator: (tag * 7) % counts.1,
            subjects,
        });
        let (next, report) = model.ingest(&batch).expect("ingest");
        counts = (report.articles_total, report.creators_total, report.subjects_total);
        model = Arc::new(next);
    }

    assert_eq!(pinned.corpus_sizes(), pinned_sizes);
    assert_eq!(model.corpus_sizes(), counts);
    assert!(counts.0 >= pinned_sizes.0 + 200);
    assert!(answers(&pinned, &requests) == before, "the pinned handle's answers changed");

    // `affected_base_nodes` is the batch's own figure: after 209
    // ingests a payload on base nodes costs what it costs fresh.
    let payload = make_batch(1, model.corpus_sizes(), 999);
    let (_, fresh) = build_model().ingest(&payload).expect("fresh ingest");
    let (_, chained) = model.ingest(&payload).expect("chained ingest");
    assert_eq!(chained.affected_base_nodes, fresh.affected_base_nodes);
}

/// After successful ingests, a multi-node batch whose *last* article
/// is invalid is rejected whole: counts, earlier nodes' readouts and
/// the next assigned id are exactly as before it.
#[test]
fn rejected_batch_after_ingests_changes_nothing() {
    let (server, addr) = start(&ephemeral());
    let mut counts = build_model().corpus_sizes();
    let mut ingested: Vec<String> = Vec::new();
    for tag in 0..3 {
        let (status, response) = post_ingest(&addr, &make_batch(2, counts, tag));
        assert_eq!(status, 200, "{response}");
        let report: IngestReport = serde_json::from_str(&response).expect("report json");
        counts = (report.articles_total, report.creators_total, report.subjects_total);
        for (ty, nodes) in
            [("article", &report.articles), ("creator", &report.creators), ("subject", &report.subjects)]
        {
            ingested.extend(nodes.iter().map(|n| format!("{{\"node_type\":\"{ty}\",\"id\":{}}}", n.id)));
        }
    }
    let readouts = |addr: &str| -> Vec<String> {
        ingested
            .iter()
            .map(|body| {
                let (status, response) = client(addr).post("/v1/predict", body).expect("post");
                assert_eq!(status, 200, "{response}");
                response
            })
            .collect()
    };
    let (_, health_before) = client(&addr).get("/healthz").expect("get");
    let readouts_before = readouts(&addr);

    // Valid creator, subject and first articles; the last article
    // cites a subject beyond even the batch's own new one.
    let mut batch = make_batch(3, counts, 7);
    batch.articles.last_mut().expect("articles").subjects.push(counts.2 + 5);
    let (status, response) = post_ingest(&addr, &batch);
    assert_eq!(status, 400, "{response}");
    assert!(response.contains("out of range"), "{response}");

    let (_, health_after) = client(&addr).get("/healthz").expect("get");
    assert_eq!(health_after, health_before);
    assert!(readouts(&addr) == readouts_before, "an earlier node's readout changed");
    let (status, response) = post_ingest(&addr, &make_batch(1, counts, 8));
    assert_eq!(status, 200, "{response}");
    let report: IngestReport = serde_json::from_str(&response).expect("report json");
    assert_eq!(report.articles[0].id, counts.0, "the rejected batch consumed ids");
    server.shutdown();
}

#[test]
fn reload_discards_ingested_nodes_and_ingest_works_again() {
    let (server, addr) = start(&ephemeral());
    let base_counts = build_model().corpus_sizes();
    let batch = make_batch(3, base_counts, 0);
    let (status, response) = post_ingest(&addr, &batch);
    assert_eq!(status, 200, "{response}");

    // A reload (what the SIGHUP supervision loop does) swaps in a
    // pristine bundle: ingested nodes are gone by design — the fast
    // path is a cache over the frozen bundle, the durable path is
    // retrain + reload.
    server.swap_model(build_model());
    let (status, health) = client(&addr).get("/healthz").expect("get");
    assert_eq!(status, 200);
    assert!(
        health.contains(&format!("\"articles\":{}", base_counts.0)),
        "reload must restore base counts: {health}"
    );
    // By-id lookups of the discarded nodes 404 now.
    let body = format!("{{\"id\":{}}}", base_counts.0);
    let (status, _) = client(&addr).post("/v1/predict", &body).expect("post");
    assert_eq!(status, 404);

    // The update lock serialises ingests with reloads, so ingesting
    // again just works on the fresh model.
    let (status, response) = post_ingest(&addr, &make_batch(1, base_counts, 1));
    assert_eq!(status, 200, "{response}");
    server.shutdown();
}

#[test]
fn inflight_predicts_are_never_dropped_during_ingest() {
    let (server, addr) = start(&ephemeral());
    let (_, creators_n, subjects_n) = build_model().corpus_sizes();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Hammer threads: continuous predict traffic citing base nodes.
    let hammers: Vec<_> = (0..4)
        .map(|t| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = client(&addr);
                let mut done = 0usize;
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let body = format!(
                        "{{\"text\":\"claim {t}-{done} about medicare\",\"creator\":{},\"subjects\":[{}]}}",
                        done % creators_n,
                        done % subjects_n
                    );
                    let (status, response) = client.post("/v1/predict", &body).expect("post");
                    assert_eq!(status, 200, "predict during ingest: {response}");
                    done += 1;
                }
                done
            })
        })
        .collect();

    // Meanwhile, a stream of ingests lands model swaps under them.
    let mut counts = build_model().corpus_sizes();
    for tag in 0..5 {
        let (status, response) = post_ingest(&addr, &make_batch(2, counts, tag));
        assert_eq!(status, 200, "{response}");
        let report: IngestReport = serde_json::from_str(&response).expect("report json");
        counts = (report.articles_total, report.creators_total, report.subjects_total);
        std::thread::sleep(Duration::from_millis(30));
    }
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let total: usize = hammers.into_iter().map(|h| h.join().expect("hammer thread")).sum();
    assert!(total > 0, "hammers must have exercised the predict path");
    assert_eq!(counts.0, build_model().corpus_sizes().0 + 10, "5 ingests × 2 articles landed");
    server.shutdown();
}
