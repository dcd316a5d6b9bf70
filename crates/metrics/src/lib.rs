//! Evaluation metrics for the credibility-inference experiments.
//!
//! Section 5.1.3 of the paper: bi-class experiments report Accuracy,
//! Precision, Recall and F1 (positive class = {True, Mostly True, Half
//! True}); multi-class experiments report Accuracy and the macro-averaged
//! Precision/Recall/F1 over the six Truth-O-Meter classes.
//!
//! ```
//! use fd_metrics::ConfusionMatrix;
//!
//! let mut cm = ConfusionMatrix::new(2);
//! cm.record(1, 1);
//! cm.record(1, 0);
//! cm.record(0, 0);
//! assert!((cm.accuracy() - 2.0 / 3.0).abs() < 1e-9);
//! assert_eq!(cm.precision(1), 1.0);
//! assert_eq!(cm.recall(1), 0.5);
//! ```

mod confusion;
mod report;
mod series;

pub use confusion::{ConfusionMatrix, MetricKind};
pub use report::classification_report;
pub use series::{MethodSeries, SweepResults};
