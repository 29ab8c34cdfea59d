//! # dolbie-bench
//!
//! The benchmark harness of the DOLBIE reproduction. Two entry points:
//!
//! - `cargo run --release -p dolbie-bench --bin paper_figures -- <target>`
//!   regenerates the paper's figures (fig3..fig11) and the extension
//!   experiments (regret, comms, edge, ablation), printing the series the
//!   paper reports and writing CSVs to `results/`;
//! - `cargo run --release -p dolbie-bench --bin dolbie_sim -- ...` runs one
//!   configurable simulation.
//!
//! The experiment-to-figure mapping lives in DESIGN.md §5; measured-vs-
//! paper outcomes are recorded in EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod experiments;
