//! The experiments that regenerate every table and figure of the EATSS
//! paper (see DESIGN.md §5 for the index), as library functions.
//!
//! [`experiments`] holds one report writer per table/figure, and
//! [`EXPERIMENTS`] names them; `run_all` writes each report under
//! `results/`, and tier-1 compares each with its committed file. The
//! rest is the common machinery: tile-space exploration, baseline
//! extraction (default / median / best PPCG), device lists, the seeded
//! oracle sweep and plain-text table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod experiments;
pub mod explore;
pub mod oracle;
pub mod profiles;
pub mod table;

pub use experiments::{ExperimentError, EXPERIMENTS};
pub use explore::{explore_space, BaselineSummary, Variant};
pub use table::Table;

/// The line an experiment prints between what repeats exactly and what
/// it measured on the wall clock. A regenerated report is compared with
/// the committed one up to this line ([`deterministic_part`]).
pub const MEASURED_BELOW: &str =
    "--- measured wall-clock seconds below: these differ from run to run ---";

/// The part of a report that repeats exactly: everything up to and
/// including [`MEASURED_BELOW`], or the whole report when it has none.
pub fn deterministic_part(report: &str) -> &str {
    report
        .find(MEASURED_BELOW)
        .map_or(report, |at| &report[..at + MEASURED_BELOW.len()])
}
