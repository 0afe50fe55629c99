//! Evaluation metrics and experiment reporting for the SpecASR reproduction.
//!
//! * [`wer`] — word-error-rate and edit-distance computation (Fig. 5a and the
//!   iso-accuracy checks behind every speedup claim),
//! * [`histogram`] — the latency histogram every serving percentile and the
//!   metrics exposition read: fixed log-spaced buckets, merged by adding
//!   counts,
//! * [`report`] — experiment records: labelled rows of named values that can
//!   be rendered as a text table (what the harness prints) and serialised as
//!   JSON (what `EXPERIMENTS.md` is regenerated from).
//!
//! # Example
//!
//! ```
//! use specasr_metrics::wer::wer_between;
//!
//! let reference = "the cat sat on the mat";
//! let hypothesis = "the cat sat on a mat";
//! let measurement = wer_between(reference, hypothesis);
//! assert_eq!(measurement.substitutions, 1);
//! assert!((measurement.wer() - 1.0 / 6.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod report;
pub mod wer;

pub use histogram::{BoundTexts, Histogram};
pub use report::{ExperimentRecord, ReportRow};
pub use wer::{wer_between, WerMeasurement};
