#![warn(missing_docs)]

//! Measurement harness shared by the `experiments` binary (which
//! regenerates every figure/experiment table in `EXPERIMENTS.md`) and the
//! Criterion benches.

pub mod measure;
pub mod table;
pub mod workloads;

pub use measure::{CcMeasurement, SsspMeasurement};
pub use table::Table;
