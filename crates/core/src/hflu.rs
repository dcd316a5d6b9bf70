//! The Hybrid Feature Learning Unit (Section 4.1, Figure 3(a)).
//!
//! `x_i = [(x^e_i)ᵀ, (x^l_i)ᵀ]ᵀ`: the explicit χ² bag-of-words feature
//! (precomputed in `fd_data::ExplicitFeatures`, entering the tape as a
//! constant) concatenated with the latent feature from a GRU over the
//! token sequence with a sigmoid fusion layer (`fd_nn::GruEncoder`).

use crate::FakeDetectorConfig;
use fd_autograd::Var;
use fd_data::ExperimentContext;
use fd_graph::NodeType;
use fd_nn::{Binding, GruEncoder, ParamId, Params};
use fd_tensor::Matrix;
use fd_text::PAD_ID;
use rand::Rng;

/// HFLU inputs for a batch of nodes, in batch order: one explicit
/// feature row and one token-id sequence per node.
pub struct HfluInput<'a> {
    explicit: Matrix,
    sequences: Vec<&'a [usize]>,
}

impl<'a> HfluInput<'a> {
    /// The corpus nodes `indices` of type `ty`, read from the context.
    pub fn gather(
        ctx: &ExperimentContext<'a>,
        ty: NodeType,
        indices: impl ExactSizeIterator<Item = usize>,
    ) -> Self {
        let tokenized = ctx.tokenized;
        let mut explicit = Matrix::zeros(indices.len(), ctx.explicit.dim);
        let mut sequences = Vec::with_capacity(indices.len());
        for (k, i) in indices.enumerate() {
            explicit.row_mut(k).copy_from_slice(ctx.explicit.feature(ty, i).row(0));
            sequences.push(tokenized.sequence(ty, i));
        }
        Self { explicit, sequences }
    }

    /// Nodes outside the corpus (inductive requests, ingested nodes):
    /// row `k` of `explicit` is the frozen-pipeline feature row of the
    /// node whose token ids are `sequences[k]`.
    pub fn raw(explicit: Matrix, sequences: Vec<&'a [usize]>) -> Self {
        assert_eq!(explicit.rows(), sequences.len(), "HFLU input: one sequence per explicit row");
        Self { explicit, sequences }
    }

    /// This batch followed by `more`'s nodes.
    pub fn chain(self, more: HfluInput<'a>) -> Self {
        if more.sequences.is_empty() {
            return self;
        }
        let mut sequences = self.sequences;
        sequences.extend(more.sequences);
        Self { explicit: self.explicit.concat_rows(&more.explicit), sequences }
    }
}

/// One node type's HFLU: the latent encoder plus the ablation switches.
#[derive(Debug, Clone)]
pub struct Hflu {
    pub(crate) encoder: Option<GruEncoder>,
    pub(crate) use_explicit: bool,
    out_dim: usize,
}

impl Hflu {
    /// Builds the HFLU for one node type. The GRU encoder is only
    /// allocated when the latent half is enabled.
    pub fn new(
        params: &mut Params,
        name: &str,
        vocab_size: usize,
        explicit_dim: usize,
        config: &FakeDetectorConfig,
        rng: &mut impl Rng,
    ) -> Self {
        let encoder = config.use_latent.then(|| {
            GruEncoder::new(
                params,
                &format!("{name}.encoder"),
                vocab_size,
                config.embed_dim,
                config.gru_hidden,
                config.latent_dim,
                PAD_ID,
                rng,
            )
        });
        Self {
            encoder,
            use_explicit: config.use_explicit,
            out_dim: config.hflu_out_dim(explicit_dim),
        }
    }

    /// Tape-free HFLU over a batch: row `k` is `[x^e | x^l]` of node `k`
    /// of `input`, one `out_dim` row per node. Batching never changes a
    /// row: the GRU batch encoder replays the per-node schedule exactly
    /// and the explicit half is copied verbatim, so row `k` is
    /// bit-identical whether its node is encoded alone or with any
    /// companions.
    pub fn encode(&self, params: &Params, input: HfluInput<'_>) -> Matrix {
        let explicit = self.use_explicit.then_some(input.explicit);
        let latent = self.encoder.as_ref().map(|enc| enc.encode_batch(params, &input.sequences));
        match (explicit, latent) {
            (Some(e), Some(l)) => e.concat_cols(&l),
            (Some(e), None) => e,
            (None, Some(l)) => l,
            (None, None) => unreachable!("config validation forbids both halves off"),
        }
    }

    /// Tape-recorded twin of [`Hflu::encode`]: one
    /// `len x out_dim` variable with the same rows bit for bit, whose
    /// backward pass reaches the encoder parameters.
    pub fn encode_tape(&self, bind: &Binding, input: HfluInput<'_>) -> Var {
        let tape = bind.tape();
        let explicit = self.use_explicit.then(|| tape.leaf(input.explicit));
        let latent =
            self.encoder.as_ref().map(|enc| enc.encode_batch_tape(bind, &input.sequences));
        match (explicit, latent) {
            (Some(e), Some(l)) => tape.concat_cols(e, l),
            (Some(e), None) => e,
            (None, Some(l)) => l,
            (None, None) => unreachable!("config validation forbids both halves off"),
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Trainable parameter handles (empty in the explicit-only ablation).
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.encoder.as_ref().map(GruEncoder::param_ids).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_autograd::Tape;
    use fd_data::{
        generate, CvSplits, ExplicitFeatures, GeneratorConfig, LabelMode, TokenizedCorpus,
        TrainSets,
    };
    use rand::{rngs::StdRng, SeedableRng};

    struct Fixture {
        corpus: fd_data::Corpus,
        tokenized: TokenizedCorpus,
        explicit: ExplicitFeatures,
        train: TrainSets,
    }

    fn fixture() -> Fixture {
        let corpus = generate(&GeneratorConfig::politifact().scaled(0.01), 3);
        let tokenized = TokenizedCorpus::build(&corpus, 12, 3000);
        let mut rng = StdRng::seed_from_u64(1);
        let train = TrainSets {
            articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
            creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
            subjects: CvSplits::new(corpus.subjects.len(), 6, &mut rng).fold(0).0,
        };
        let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, 40);
        Fixture { corpus, tokenized, explicit, train }
    }

    fn ctx(f: &Fixture) -> ExperimentContext<'_> {
        ExperimentContext {
            corpus: &f.corpus,
            tokenized: &f.tokenized,
            explicit: &f.explicit,
            train: &f.train,
            mode: LabelMode::Binary,
            seed: 1,
        }
    }

    #[test]
    fn full_hflu_concatenates_both_halves() {
        let f = fixture();
        let c = ctx(&f);
        let config = FakeDetectorConfig::default();
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(2);
        let hflu = Hflu::new(
            &mut params,
            "hflu.article",
            c.tokenized.vocab.id_space(),
            40,
            &config,
            &mut rng,
        );
        assert_eq!(hflu.out_dim(), 40 + config.latent_dim);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &params);
        let x = hflu.encode_tape(&bind, HfluInput::gather(&c, NodeType::Article, 0..1));
        assert_eq!(tape.shape(x), (1, hflu.out_dim()));
        // Explicit half is the stored feature verbatim.
        let v = tape.value(x);
        let expected = c.explicit.feature(NodeType::Article, 0);
        for i in 0..40 {
            assert_eq!(v[(0, i)], expected[(0, i)]);
        }
    }

    #[test]
    fn explicit_only_ablation_has_no_params() {
        let f = fixture();
        let c = ctx(&f);
        let config = FakeDetectorConfig { use_latent: false, ..FakeDetectorConfig::default() };
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(2);
        let hflu = Hflu::new(
            &mut params,
            "h",
            c.tokenized.vocab.id_space(),
            40,
            &config,
            &mut rng,
        );
        assert!(hflu.param_ids().is_empty());
        assert_eq!(params.len(), 0);
        let tape = Tape::new();
        let bind = Binding::new(&tape, &params);
        let x = hflu.encode_tape(&bind, HfluInput::gather(&c, NodeType::Creator, 0..1));
        assert_eq!(tape.shape(x), (1, 40));
    }

    #[test]
    fn latent_only_ablation_matches_encoder_width() {
        let f = fixture();
        let c = ctx(&f);
        let config = FakeDetectorConfig { use_explicit: false, ..FakeDetectorConfig::default() };
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(2);
        let hflu = Hflu::new(
            &mut params,
            "h",
            c.tokenized.vocab.id_space(),
            40,
            &config,
            &mut rng,
        );
        let tape = Tape::new();
        let bind = Binding::new(&tape, &params);
        let x = hflu.encode_tape(&bind, HfluInput::gather(&c, NodeType::Subject, 0..1));
        assert_eq!(tape.shape(x), (1, config.latent_dim));
        // Latent half is a sigmoid output: strictly in (0, 1).
        assert!(tape.value(x).as_slice().iter().all(|&v| v > 0.0 && v < 1.0));
    }
}
