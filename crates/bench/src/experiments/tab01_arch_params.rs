//! **Table I** — GPU-specific input parameters of the EATSS model
//! (GA100 example column), regenerated from the architecture
//! description.

use super::*;

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let ga = GpuArch::ga100();
    let mut t = Table::new(vec!["Abbreviation", "Description", "Example (GA100)"]);
    t.row(vec![
        "T_P_B".into(),
        "Threads per Thread-Block".into(),
        ga.max_threads_per_block.to_string(),
    ]);
    t.row(vec![
        "T_P_W".into(),
        "Threads per Warp".into(),
        ga.threads_per_warp.to_string(),
    ]);
    t.row(vec![
        "R_P_S".into(),
        "Registers per SM".into(),
        format!("{}K", ga.regs_per_sm / 1024),
    ]);
    t.row(vec![
        "R_P_B".into(),
        "Registers per Thread-Block".into(),
        format!("{}K", ga.regs_per_sm / 1024),
    ]);
    t.row(vec![
        "R_P_T".into(),
        "Registers per Thread".into(),
        ga.regs_per_thread.to_string(),
    ]);
    t.row(vec![
        "L1_SH".into(),
        "L1 + Shared Memory".into(),
        format!("{}KB", ga.l1_shared_bytes / 1024),
    ]);
    t.row(vec![
        "L2".into(),
        "L2 Memory".into(),
        format!("{}MB", ga.l2_bytes / 1024 / 1024),
    ]);
    writeln!(
        out,
        "Table I: GPU-specific (GA100) input parameters to model\n"
    )?;
    writeln!(out, "{}", t.render())?;
    Ok(())
}
