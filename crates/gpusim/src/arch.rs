//! GPU architecture descriptions (Tables I and III of the paper).

use std::fmt;

/// Per-activity energy and static-power coefficients of the power model.
///
/// Units: `e_*` are joules per unit of work (per GFLOP, per GB moved at
/// the respective level); `p_*` are watts.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerCoefficients {
    /// Board/host constant power (always drawn while the GPU is on).
    pub p_constant_w: f64,
    /// Leakage floor (static power at idle).
    pub p_static_base_w: f64,
    /// Additional leakage when all SMs are active (scales with the active
    /// SM fraction — clocks and power-gating react to utilization).
    pub p_static_active_w: f64,
    /// Dynamic SM power at full issue rate (scales with compute
    /// utilization × active fraction).
    pub p_sm_dynamic_w: f64,
    /// Energy per GFLOP of executed arithmetic (J/GFLOP).
    pub e_flop_j_per_gflop: f64,
    /// Energy per GB moved between L1/SM and L2 (J/GB).
    pub e_l2_j_per_gb: f64,
    /// Energy per GB moved between L2 and DRAM (J/GB); poor row-buffer
    /// locality is charged up to 2× this value.
    pub e_dram_j_per_gb: f64,
    /// Energy per GB served from shared memory (J/GB).
    pub e_shared_j_per_gb: f64,
}

/// A GPU architecture: the model-input parameters of Table I plus the
/// testbed characteristics of Table III and the power/timing calibration
/// constants of the simulator.
///
/// # Examples
///
/// ```
/// use eatss_gpusim::GpuArch;
///
/// let ga100 = GpuArch::ga100();
/// assert_eq!(ga100.sm_count, 108);
/// assert_eq!(ga100.threads_per_warp, 32);
/// assert_eq!(ga100.l1_shared_bytes, 192 * 1024);
/// let xavier = GpuArch::xavier();
/// assert!(xavier.tdp_w < ga100.tdp_w);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuArch {
    /// Marketing name.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// `T_P_B`: maximum threads per thread block.
    pub max_threads_per_block: u32,
    /// `T_P_W`: threads per warp.
    pub threads_per_warp: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// `R_P_S` / `R_P_B`: 32-bit registers per SM and per block.
    pub regs_per_sm: u32,
    /// `R_P_T`: maximum registers per thread.
    pub regs_per_thread: u32,
    /// `L1_SH`: combined L1 + shared memory per SM, in bytes.
    pub l1_shared_bytes: u64,
    /// Maximum shared memory per block, in bytes.
    pub max_shared_per_block: u64,
    /// L2 cache size, in bytes.
    pub l2_bytes: u64,
    /// Global memory, in bytes.
    pub dram_bytes: u64,
    /// Peak FP32 throughput, GFLOP/s.
    pub peak_fp32_gflops: f64,
    /// Peak FP64 throughput, GFLOP/s (no tensor cores).
    pub peak_fp64_gflops: f64,
    /// Peak FP64 tensor-core throughput, GFLOP/s (vendor libraries only).
    pub peak_fp64_tensor_gflops: f64,
    /// DRAM bandwidth, GB/s.
    pub dram_bw_gbs: f64,
    /// Aggregate L2 bandwidth, GB/s.
    pub l2_bw_gbs: f64,
    /// Aggregate shared-memory bandwidth, GB/s.
    pub shared_bw_gbs: f64,
    /// Thermal design power, watts (the DVFS cap).
    pub tdp_w: f64,
    /// Kernel launch overhead, seconds.
    pub launch_overhead_s: f64,
    /// Cost of one block-wide barrier (`__syncthreads`), seconds.
    pub barrier_overhead_s: f64,
    /// DRAM row-buffer chunk: contiguous run length (bytes) needed for
    /// full burst efficiency.
    pub dram_row_chunk_bytes: f64,
    /// Time constant of the clock-boost / thermal power ramp, seconds:
    /// short kernels average close to idle power, long ones reach the
    /// steady state (the Fig. 1 size effect).
    pub power_ramp_tau_s: f64,
    /// Power-model coefficients.
    pub power: PowerCoefficients,
}

impl GpuArch {
    /// The NVIDIA GA100 (A100-40GB) server GPU of Table III, loaded from
    /// the committed `profiles/ga100.json` device profile (pinned
    /// field-equal to the historical hard-wired values by test).
    pub fn ga100() -> Self {
        crate::profile::DeviceProfile::builtin("ga100")
            .expect("ga100 is a committed builtin profile")
            .into_arch()
    }

    /// The NVIDIA Jetson AGX Xavier embedded GPU of Table III, loaded
    /// from the committed `profiles/xavier.json` device profile.
    pub fn xavier() -> Self {
        crate::profile::DeviceProfile::builtin("xavier")
            .expect("xavier is a committed builtin profile")
            .into_arch()
    }

    /// Peak arithmetic throughput for the given element width (GFLOP/s):
    /// 4 bytes → FP32, 8 bytes → FP64 (§IV-I: DP peak is a fraction of SP).
    pub fn peak_gflops(&self, elem_bytes: u8) -> f64 {
        if elem_bytes >= 8 {
            self.peak_fp64_gflops
        } else {
            self.peak_fp32_gflops
        }
    }

    /// Idle power floor: constant + static-base components.
    pub fn idle_power_w(&self) -> f64 {
        self.power.p_constant_w + self.power.p_static_base_w
    }

    /// Size of one L2 sector, bytes (NVIDIA GPUs move 32-byte sectors).
    pub fn sector_bytes(&self) -> u64 {
        32
    }
}

/// The historical hard-wired constructors, kept verbatim so tests can pin
/// the committed profiles field-equal to the original literal values.
#[cfg(test)]
pub(crate) mod legacy {
    use super::{GpuArch, PowerCoefficients};

    /// The GA100 literal exactly as it shipped before profile loading.
    pub fn ga100() -> GpuArch {
        GpuArch {
            name: "GA100".to_owned(),
            sm_count: 108,
            max_threads_per_block: 1024,
            threads_per_warp: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            regs_per_sm: 65_536,
            regs_per_thread: 255,
            l1_shared_bytes: 192 * 1024,
            max_shared_per_block: 48 * 1024,
            l2_bytes: 40 * 1024 * 1024,
            dram_bytes: 40 * 1024 * 1024 * 1024,
            peak_fp32_gflops: 19_500.0,
            peak_fp64_gflops: 9_700.0,
            peak_fp64_tensor_gflops: 19_500.0,
            dram_bw_gbs: 1_555.0,
            l2_bw_gbs: 5_000.0,
            shared_bw_gbs: 18_000.0,
            tdp_w: 250.0,
            launch_overhead_s: 4.0e-6,
            barrier_overhead_s: 1.2e-7,
            dram_row_chunk_bytes: 1024.0,
            power_ramp_tau_s: 0.015,
            power: PowerCoefficients {
                p_constant_w: 38.0,
                p_static_base_w: 22.0,
                p_static_active_w: 42.0,
                p_sm_dynamic_w: 70.0,
                e_flop_j_per_gflop: 9.0e-3,
                e_l2_j_per_gb: 2.2e-2,
                e_dram_j_per_gb: 5.5e-2,
                e_shared_j_per_gb: 1.5e-3,
            },
        }
    }

    /// The Xavier literal exactly as it shipped before profile loading.
    pub fn xavier() -> GpuArch {
        GpuArch {
            name: "Xavier".to_owned(),
            sm_count: 8,
            max_threads_per_block: 1024,
            threads_per_warp: 32,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            regs_per_sm: 65_536,
            regs_per_thread: 255,
            l1_shared_bytes: 128 * 1024,
            max_shared_per_block: 48 * 1024,
            l2_bytes: 512 * 1024,
            dram_bytes: 32 * 1024 * 1024 * 1024,
            peak_fp32_gflops: 1_410.0,
            peak_fp64_gflops: 44.0,
            peak_fp64_tensor_gflops: 44.0,
            dram_bw_gbs: 137.0,
            l2_bw_gbs: 450.0,
            shared_bw_gbs: 1_600.0,
            tdp_w: 30.0,
            launch_overhead_s: 8.0e-6,
            barrier_overhead_s: 2.5e-7,
            dram_row_chunk_bytes: 1024.0,
            power_ramp_tau_s: 0.010,
            power: PowerCoefficients {
                p_constant_w: 4.5,
                p_static_base_w: 2.5,
                p_static_active_w: 5.0,
                p_sm_dynamic_w: 8.0,
                e_flop_j_per_gflop: 1.0e-1,
                e_l2_j_per_gb: 3.0e-2,
                e_dram_j_per_gb: 7.0e-2,
                e_shared_j_per_gb: 3.0e-3,
            },
        }
    }
}

impl fmt::Display for GpuArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} SMs, {:.1} TFLOP/s FP64, {:.0} GB/s DRAM, {:.0} W TDP)",
            self.name,
            self.sm_count,
            self.peak_fp64_gflops / 1000.0,
            self.dram_bw_gbs,
            self.tdp_w
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_values() {
        let ga = GpuArch::ga100();
        assert_eq!(ga.sm_count, 108);
        assert_eq!(ga.l2_bytes, 40 * 1024 * 1024);
        assert_eq!(ga.max_shared_per_block, 48 * 1024);
        assert_eq!(ga.regs_per_sm, 65_536);
        assert!((ga.peak_fp64_gflops - 9700.0).abs() < 1e-9);
        assert!((ga.tdp_w - 250.0).abs() < 1e-9);
        let xa = GpuArch::xavier();
        assert_eq!(xa.sm_count, 8);
        assert_eq!(xa.l2_bytes, 512 * 1024);
        assert!((xa.peak_fp64_gflops - 44.0).abs() < 1e-9);
        assert!((xa.tdp_w - 30.0).abs() < 1e-9);
    }

    #[test]
    fn table_i_values() {
        let ga = GpuArch::ga100();
        assert_eq!(ga.max_threads_per_block, 1024);
        assert_eq!(ga.threads_per_warp, 32);
        assert_eq!(ga.regs_per_thread, 255);
        assert_eq!(ga.l1_shared_bytes, 192 * 1024);
    }

    #[test]
    fn precision_selects_peak() {
        let ga = GpuArch::ga100();
        assert_eq!(ga.peak_gflops(4), ga.peak_fp32_gflops);
        assert_eq!(ga.peak_gflops(8), ga.peak_fp64_gflops);
    }

    #[test]
    fn display_mentions_name_and_sms() {
        let s = GpuArch::xavier().to_string();
        assert!(s.contains("Xavier"));
        assert!(s.contains("8 SMs"));
    }
}
