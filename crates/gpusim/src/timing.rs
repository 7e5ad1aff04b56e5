//! Execution-time model: a bounded-overlap roofline over the compute, L2,
//! DRAM and shared-memory phases, plus staging-synchronization and launch
//! overheads.

use crate::arch::GpuArch;
use crate::occupancy::Occupancy;
use crate::spec::KernelExecSpec;
use crate::traffic::TrafficReport;

/// Time decomposition of one launch (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingBreakdown {
    /// Arithmetic-pipe busy time.
    pub compute_s: f64,
    /// L2 transfer time.
    pub l2_s: f64,
    /// DRAM transfer time (row-efficiency weighted).
    pub dram_s: f64,
    /// Shared-memory transfer time.
    pub shared_s: f64,
    /// Block-barrier time for staged kernels.
    pub sync_s: f64,
    /// Launch overhead.
    pub launch_s: f64,
    /// Total before DVFS capping / noise.
    pub total_s: f64,
    /// Effective compute throughput fraction of peak.
    pub compute_efficiency: f64,
    /// Whether the launch is executable (blocks fit on an SM).
    pub valid: bool,
}

impl TimingBreakdown {
    /// An unexecutable launch (a block exceeds per-SM resources).
    pub fn invalid() -> Self {
        TimingBreakdown {
            compute_s: f64::INFINITY,
            l2_s: 0.0,
            dram_s: 0.0,
            shared_s: 0.0,
            sync_s: 0.0,
            launch_s: 0.0,
            total_s: f64::INFINITY,
            compute_efficiency: 0.0,
            valid: false,
        }
    }

    /// Fraction of the total attributable to arithmetic (used to scale
    /// dynamic SM power).
    pub fn compute_fraction(&self) -> f64 {
        if !self.valid || self.total_s <= 0.0 {
            0.0
        } else {
            (self.compute_s / self.total_s).clamp(0.0, 1.0)
        }
    }
}

/// Runs the timing model.
pub fn model(
    arch: &GpuArch,
    spec: &KernelExecSpec,
    occ: &Occupancy,
    traffic: &TrafficReport,
) -> TimingBreakdown {
    if occ.blocks_per_sm == 0 || spec.grid_blocks <= 0 || spec.threads_per_block <= 0 {
        return TimingBreakdown::invalid();
    }

    // -- compute phase ---------------------------------------------------
    // Latency hiding saturates: a ~15% occupancy already sustains a large
    // fraction of peak, full occupancy reaches it.
    let occ_eff = (occ.occupancy / (occ.occupancy + 0.15)) * 1.15;
    // Multiple points per thread expose ILP and amortize addressing.
    let ilp = 1.0 + 0.15 * (1.0 - 1.0 / spec.points_per_thread.max(1) as f64);
    // Warp divergence/underfill: blocks smaller than a warp waste lanes.
    let warp_fill = (spec.threads_per_block as f64 / arch.threads_per_warp as f64).min(1.0);
    let spill_penalty = if occ.register_spill { 0.5 } else { 1.0 };
    let compute_efficiency = (occ_eff * ilp * warp_fill * occ.tail_efficiency * spill_penalty)
        .clamp(0.0, 1.3)
        * occ.active_fraction(arch).max(1.0 / arch.sm_count as f64);
    let peak_flops = arch.peak_gflops(spec.elem_bytes) * 1e9;
    let compute_s = spec.flops_total / (peak_flops * compute_efficiency.max(1e-6));

    // -- memory phases -----------------------------------------------------
    let l2_s = traffic.l2_bytes / (arch.l2_bw_gbs * 1e9);
    let dram_s = traffic.dram_time_bytes / (arch.dram_bw_gbs * 1e9);
    // Shared memory and L1 are per-SM resources: idle SMs contribute no
    // load/store throughput.
    let onchip_bw = arch.shared_bw_gbs * 1e9 * occ.active_fraction(arch).max(1e-3);
    let shared_s = (traffic.shared_bytes + traffic.l1_hit_bytes) / onchip_bw;

    // -- synchronization ---------------------------------------------------
    let staged = spec.refs.iter().any(|r| r.staged_shared);
    let sync_s = if staged {
        spec.serial_steps_per_block.max(0) as f64
            * arch.barrier_overhead_s
            * occ.waves.ceil().max(1.0)
    } else {
        0.0
    };

    let phases = [compute_s, l2_s, dram_s, shared_s];
    let bound = phases.iter().cloned().fold(0.0, f64::max);
    let sum: f64 = phases.iter().sum();
    // Imperfect overlap: the non-dominant phases leak 30% of their time.
    let total_s = bound + 0.3 * (sum - bound) + sync_s + arch.launch_overhead_s;

    TimingBreakdown {
        compute_s,
        l2_s,
        dram_s,
        shared_s,
        sync_s,
        launch_s: arch.launch_overhead_s,
        total_s,
        compute_efficiency,
        valid: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::occupancy;
    use crate::spec::RefAccess;
    use crate::traffic;

    fn spec() -> KernelExecSpec {
        KernelExecSpec {
            name: "time".into(),
            grid_blocks: 50_000,
            grid_x_blocks: 250,
            threads_per_block: 256,
            points_per_thread: 1,
            serial_steps_per_block: 100,
            flops_total: 1e12,
            elem_bytes: 8,
            shared_bytes_per_block: 0,
            l1_avail_bytes: 96 * 1024,
            num_refs: 2,
            refs: vec![RefAccess::streaming("a", 10_000_000, 2048, true)],
        }
    }

    fn run(s: &KernelExecSpec) -> TimingBreakdown {
        let arch = GpuArch::ga100();
        let occ = occupancy(&arch, s);
        let t = traffic::model(&arch, s, &occ);
        model(&arch, s, &occ, &t)
    }

    #[test]
    fn compute_bound_kernel_tracks_peak() {
        let t = run(&spec());
        assert!(t.valid);
        // 1 TFLOP at ~9.7 TFLOP/s peak: order 0.1 s.
        assert!(t.total_s > 0.05 && t.total_s < 1.0, "got {}", t.total_s);
        assert!(t.compute_fraction() > 0.5);
    }

    #[test]
    fn more_flops_takes_longer() {
        let s1 = spec();
        let mut s2 = spec();
        s2.flops_total *= 4.0;
        assert!(run(&s2).total_s > 2.0 * run(&s1).total_s);
    }

    #[test]
    fn sub_warp_blocks_are_penalized() {
        let full = spec();
        let mut tiny = spec();
        tiny.threads_per_block = 8; // quarter of a warp
        let t_full = run(&full);
        let t_tiny = run(&tiny);
        assert!(t_tiny.compute_efficiency < t_full.compute_efficiency);
        assert!(t_tiny.total_s > t_full.total_s);
    }

    #[test]
    fn low_occupancy_slows_compute() {
        let mut low = spec();
        low.grid_blocks = 8; // 8 blocks on 108 SMs
        low.grid_x_blocks = 8;
        let t_low = run(&low);
        let t_high = run(&spec());
        assert!(t_low.compute_efficiency < t_high.compute_efficiency);
    }

    #[test]
    fn staging_adds_sync_time() {
        let mut staged = spec();
        staged.shared_bytes_per_block = 4096;
        staged.refs = vec![RefAccess {
            staged_shared: true,
            ..RefAccess::streaming("a", 10_000_000, 2048, true)
        }];
        let t = run(&staged);
        assert!(t.sync_s > 0.0);
        assert_eq!(run(&spec()).sync_s, 0.0);
    }

    #[test]
    fn invalid_launch_is_flagged() {
        let mut bad = spec();
        bad.shared_bytes_per_block = 10 * 1024 * 1024;
        let t = run(&bad);
        assert!(!t.valid);
        assert!(t.total_s.is_infinite());
        assert_eq!(t.compute_fraction(), 0.0);
    }

    #[test]
    fn memory_bound_kernel_is_dominated_by_dram() {
        let mut s = spec();
        s.flops_total = 1e6; // negligible compute
        s.refs = vec![RefAccess::streaming("big", 2_000_000_000, 40_000, true)];
        let t = run(&s);
        assert!(t.dram_s > t.compute_s);
    }
}
