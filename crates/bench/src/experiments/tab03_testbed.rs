//! **Table III** — GPU testbed specifications, regenerated from the two
//! architecture descriptions.

use super::*;

pub(super) fn run(out: &mut String) -> Result<(), ExperimentError> {
    let ga = GpuArch::ga100();
    let xa = GpuArch::xavier();
    let mut t = Table::new(vec!["", "GA100", "AGX Xavier"]);
    let mut row = |label: &str, a: String, b: String| {
        t.row(vec![label.to_string(), a, b]);
    };
    row(
        "Multiprocessor count",
        ga.sm_count.to_string(),
        xa.sm_count.to_string(),
    );
    row(
        "L1 / L2 cache",
        format!(
            "{} KB / {} MB",
            ga.l1_shared_bytes / 1024,
            ga.l2_bytes / 1024 / 1024
        ),
        format!(
            "{} KB / {} KB",
            xa.l1_shared_bytes / 1024,
            xa.l2_bytes / 1024
        ),
    );
    row(
        "Shared-mem per block & SM",
        format!(
            "{} KB / {} KB",
            ga.max_shared_per_block / 1024,
            ga.l1_shared_bytes / 1024 - 28 // 164 KB usable of 192 on GA100
        ),
        format!(
            "{} KB / {} KB",
            xa.max_shared_per_block / 1024,
            96 // 96 KB of the 128 KB combined is shared-usable on Volta
        ),
    );
    row(
        "Registers per block",
        ga.regs_per_sm.to_string(),
        xa.regs_per_sm.to_string(),
    );
    row(
        "Global memory",
        format!("{} GB", ga.dram_bytes / (1 << 30)),
        format!("{} GB", xa.dram_bytes / (1 << 30)),
    );
    row(
        "Peak FP64 (GFLOPS)",
        format!("{:.0}", ga.peak_fp64_gflops),
        format!("{:.0}", xa.peak_fp64_gflops),
    );
    row(
        "Thermal design power",
        format!("{:.0}W", ga.tdp_w),
        format!("{:.0}W", xa.tdp_w),
    );
    writeln!(out, "Table III: GPU Testbed Specifications\n")?;
    writeln!(out, "{}", t.render())?;
    Ok(())
}
