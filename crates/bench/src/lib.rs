#![warn(missing_docs)]

//! Measurement harness behind the `experiments` binary, which regenerates
//! every figure/experiment table in `EXPERIMENTS.md`. Wall-time claims
//! belong to the repo benchmark (`benchmark/`, `BENCHMARK.json`).

pub mod measure;
pub mod table;
pub mod workloads;

pub use measure::{CcMeasurement, SsspMeasurement};
pub use table::Table;
