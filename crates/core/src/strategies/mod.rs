//! Strategies: "user defined programs that apply patterns in a certain
//! way" (§I). The paper ships `fixed_point`, `once`, and Δ-stepping; all
//! three are here, built solely from the public customization points —
//! epochs, `epoch_flush`/`try_finish`, and per-action work hooks — so user
//! code can define its own the same way (the CC driver in
//! `dgp-algorithms` does exactly that).
//!
//! All strategies are SPMD-collective: every rank calls them at the same
//! point with its rank-local seed set.

mod basic;
mod buckets;
mod delta;

pub use basic::{fixed_point, once, once_until_fixed};
pub use buckets::Buckets;
pub use delta::{delta_stepping, delta_stepping_split};
