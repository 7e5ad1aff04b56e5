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

/// Every table/figure experiment, by the name of its binary: `run_all`
/// regenerates `results/<name>.txt` for each, in this order, and CI's
/// `results-gate` compares them with the committed files.
/// (`results/oracle_sweep.txt` is the one committed file not listed: its
/// own CI job regenerates it with `--jobs 4`.)
pub const EXPERIMENTS: [&str; 19] = [
    "tab01_arch_params",
    "tab02_access_patterns",
    "tab03_testbed",
    "tab04_vendor_comparison",
    "fig01_power_vs_size",
    "fig02_tilespace_sorted",
    "fig03_tilespace_scatter",
    "fig07_polybench",
    "fig08_shmem_splits",
    "fig09_l2_power_correlation",
    "fig10_nonpolybench_speedup",
    "fig11_nonpolybench_hist",
    "fig12_size_sensitivity",
    "fig13_size_sensitivity_np",
    "fig14_vs_ytopt",
    "secVg_solver_overhead",
    "ablation_model_terms",
    "ext_precision_study",
    "ext_device_portfolio",
];

/// The line an experiment prints between what repeats exactly and what
/// it measured on the wall clock. CI's `results-gate` compares a
/// regenerated `results/*.txt` with the committed one up to this line
/// (the whole file when it has none).
pub const MEASURED_BELOW: &str =
    "--- measured wall-clock seconds below: these differ from run to run ---";
