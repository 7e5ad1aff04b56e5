//! Shared harness code for the experiment binaries that regenerate every
//! table and figure of the EATSS paper (see DESIGN.md §5 for the index).
//!
//! Each figure/table has a dedicated binary under `src/bin/`; this
//! library holds the common machinery: space exploration with caching of
//! per-variant measurements, baseline extraction (default / median / best
//! PPCG), and plain-text table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod oracle;
pub mod profiles;
pub mod table;

pub use explore::{explore_space, BaselineSummary, Variant};
pub use table::Table;

/// The line an experiment prints between what repeats exactly and what
/// it measured on the wall clock. CI's `results-gate` compares a
/// regenerated `results/*.txt` with the committed one up to this line
/// (the whole file when it has none).
pub const MEASURED_BELOW: &str =
    "--- measured wall-clock seconds below: these differ from run to run ---";
