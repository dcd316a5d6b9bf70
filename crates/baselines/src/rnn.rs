//! The RNN baseline \[42\]: latent GRU features only, no explicit features
//! and no graph. A single shared GRU encoder reads every entity's token
//! sequence; per-type soft-max heads produce the credibility predictions
//! ("the latent feature vectors will be fused to predict the news
//! article, creator and subject credibility labels").

use crate::{CredibilityModel, ExperimentContext, Predictions};
use fd_autograd::Tape;
use fd_graph::NodeType;
use fd_nn::{clip_global_norm, Adam, Binding, GruEncoder, Linear, Params};
use fd_text::PAD_ID;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// RNN baseline hyper-parameters.
#[derive(Debug, Clone)]
pub struct RnnConfig {
    /// Token embedding width.
    pub embed_dim: usize,
    /// GRU hidden width.
    pub hidden_dim: usize,
    /// Encoder output (latent feature) width.
    pub latent_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Entities per tape (bounds peak memory).
    pub batch_size: usize,
    /// Global-norm gradient clip.
    pub clip: f32,
}

impl Default for RnnConfig {
    fn default() -> Self {
        Self {
            embed_dim: 16,
            hidden_dim: 24,
            latent_dim: 24,
            epochs: 20,
            lr: 1e-2,
            batch_size: 16,
            clip: 5.0,
        }
    }
}

/// The RNN baseline model.
#[derive(Debug, Clone, Default)]
pub struct RnnBaseline {
    /// Hyper-parameters.
    pub config: RnnConfig,
}

impl CredibilityModel for RnnBaseline {
    fn name(&self) -> &'static str {
        "rnn"
    }

    fn fit_predict(&self, ctx: &ExperimentContext<'_>) -> Predictions {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x4242_1111);
        let mut params = Params::new();
        let encoder = GruEncoder::new(
            &mut params,
            "rnn.encoder",
            ctx.tokenized.vocab.id_space(),
            cfg.embed_dim,
            cfg.hidden_dim,
            cfg.latent_dim,
            PAD_ID,
            &mut rng,
        );
        let heads: [Linear; 3] = [
            Linear::new(&mut params, "rnn.head.article", cfg.latent_dim, ctx.n_classes(), &mut rng),
            Linear::new(&mut params, "rnn.head.creator", cfg.latent_dim, ctx.n_classes(), &mut rng),
            Linear::new(&mut params, "rnn.head.subject", cfg.latent_dim, ctx.n_classes(), &mut rng),
        ];
        let mut optimizer = Adam::new(cfg.lr);

        let mut items = ctx.train_items();
        for _epoch in 0..cfg.epochs {
            items.shuffle(&mut rng);
            for batch in items.chunks(cfg.batch_size) {
                let tape = Tape::with_capacity(batch.len() * 256);
                let binding = Binding::new(&tape, &params);
                let losses: Vec<_> = batch
                    .iter()
                    .map(|&(ty, idx, target)| {
                        let latent = encoder.encode(&binding, ctx.tokenized.sequence(ty, idx));
                        let logits = heads[ty.slot()].forward(&binding, latent);
                        tape.softmax_cross_entropy(logits, target)
                    })
                    .collect();
                let loss = tape.sum_n(&losses);
                tape.backward(loss);
                let mut grads = binding.grads();
                clip_global_norm(&mut grads, cfg.clip);
                optimizer.apply(&mut params, &grads);
            }
        }

        // Inference over every entity, batched to bound tape size.
        let mut predictions = Predictions::zeroed(ctx);
        for ty in NodeType::ALL {
            let n = ctx.count(ty);
            let out = predictions.for_type_mut(ty);
            for chunk_start in (0..n).step_by(cfg.batch_size) {
                let chunk_end = (chunk_start + cfg.batch_size).min(n);
                let tape = Tape::with_capacity((chunk_end - chunk_start) * 256);
                let binding = Binding::new(&tape, &params);
                for (idx, slot) in out.iter_mut().enumerate().take(chunk_end).skip(chunk_start) {
                    let latent = encoder.encode(&binding, ctx.tokenized.sequence(ty, idx));
                    let logits = heads[ty.slot()].forward(&binding, latent);
                    *slot = tape.with_value(logits, |m| m.row_argmax(0).index);
                }
            }
        }
        predictions
    }
}
