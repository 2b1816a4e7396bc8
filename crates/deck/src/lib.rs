//! # diic-deck — a name kept for the benchmark
//!
//! The rule-deck language lives in [`diic_tech::deck`], beside the
//! [`diic_tech::Technology`] it compiles to. This crate exists only
//! because the frozen `benchmark/` package names `diic_deck`; code in the
//! workspace uses `diic_tech::deck` directly.

pub use diic_tech::deck::*;
