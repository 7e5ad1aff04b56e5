//! The seeded differential-oracle sweep ([`crate::oracle`]) under its
//! default options, whatever the environment says; the `oracle_sweep`
//! binary runs it under others.

use super::*;
use crate::oracle::{run_oracle_sweep, OracleSweepOptions};

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let summary = run_oracle_sweep(&OracleSweepOptions::default());
    out.push_str(&summary.report);
    match summary.failures {
        0 => Ok(()),
        n => Err(ExperimentError::Failed(format!("oracle sweep: {n} failure(s)"))),
    }
}
