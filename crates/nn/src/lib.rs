//! Neural-network building blocks on top of [`fd_autograd`].
//!
//! This crate supplies everything the FakeDetector models and the learned
//! baselines need around the raw autodiff engine:
//!
//! * [`Params`] — a named, serialisable store of weight matrices that
//!   outlives the per-step tapes;
//! * [`Binding`] — the bridge that lazily registers parameters as tape
//!   leaves for one forward/backward pass and collects their gradients;
//! * layers — [`Linear`], [`GruCell`], [`Embedding`] and the pooled
//!   [`GruEncoder`] used by both the RNN baseline and HFLU;
//! * [`Adam`], the optimiser every trained model uses, with a dense
//!   update and a lazy one for minibatch steps, plus global-norm
//!   [`clip_global_norm`].
//!
//! # Training-step shape
//!
//! ```
//! use fd_autograd::Tape;
//! use fd_nn::{Adam, Binding, Linear, Params};
//! use fd_tensor::Matrix;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut params = Params::new();
//! let layer = Linear::new(&mut params, "head", 4, 2, &mut rng);
//! let mut opt = Adam::new(1e-2);
//!
//! for _step in 0..10 {
//!     let tape = Tape::new();
//!     let binding = Binding::new(&tape, &params);
//!     let x = tape.leaf(Matrix::row_vector(&[1.0, 0.5, -0.5, 2.0]));
//!     let logits = layer.forward(&binding, x);
//!     let loss = tape.softmax_cross_entropy(logits, 1);
//!     tape.backward(loss);
//!     let grads = binding.grads();
//!     opt.apply(&mut params, &grads);
//! }
//! ```

mod binding;
mod clip;
mod layers;
mod optim;
mod params;

pub use binding::Binding;
pub use clip::{clip_global_norm, global_norm};
pub use layers::{Embedding, GruCell, GruEncoder, Linear};
pub use optim::{Adam, AdamState};
pub use params::{ParamId, Params};
