//! A mechanistic GPU performance / power / energy model — the hardware
//! stand-in for the NVIDIA GA100 and Jetson AGX Xavier testbeds of the
//! EATSS paper (CGO 2024).
//!
//! The paper measures tiled CUDA kernels on real GPUs with `nvidia-smi`,
//! `tegrastats` and Nsight Compute. This crate replaces the hardware with
//! an analytic model whose terms respond to tile-size choices through the
//! same mechanisms the paper argues drive the measurements:
//!
//! * **occupancy** ([`mod@occupancy`]) — threads/registers/shared-memory limits
//!   per SM, wave quantization and tail effects;
//! * **memory traffic** ([`traffic`]) — per-reference L1 residency and
//!   thrashing, L1→L2 sector counts (the `lts__t_sectors..read` proxy of
//!   Fig. 9), L2 capacity filtering against the concurrent working set,
//!   DRAM traffic with row-buffer (burst) efficiency, and coalescing;
//! * **timing** ([`timing`]) — roofline-style max of compute / L2 / DRAM
//!   phases plus staging-synchronization and launch overheads;
//! * **power** ([`power`]) — constant + static + dynamic decomposition
//!   (Fig. 1) with per-activity energies and a TDP cap that models the
//!   automatic DVFS behaviour the paper exploits.
//!
//! All "measurement noise" is deterministic ([`noise`]), so experiments
//! are reproducible bit-for-bit.
//!
//! # Examples
//!
//! ```
//! use eatss_gpusim::{Gpu, GpuArch, KernelExecSpec, RefAccess};
//!
//! let gpu = Gpu::new(GpuArch::ga100());
//! let spec = KernelExecSpec {
//!     name: "axpy".into(),
//!     grid_blocks: 4096,
//!     grid_x_blocks: 4096,
//!     threads_per_block: 256,
//!     points_per_thread: 1,
//!     serial_steps_per_block: 1,
//!     flops_total: 2.0 * 1e6,
//!     elem_bytes: 8,
//!     shared_bytes_per_block: 0,
//!     l1_avail_bytes: 128 * 1024,
//!     num_refs: 2,
//!     refs: vec![
//!         RefAccess::streaming("x", 1_000_000, 256, true),
//!         RefAccess::streaming("y", 1_000_000, 256, false),
//!     ],
//! };
//! let report = gpu.simulate(&spec);
//! assert!(report.time_s > 0.0);
//! assert!(report.avg_power_w > 0.0);
//! assert!(report.energy_j > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod arch;
pub mod fault;
pub mod metrics;
pub mod noise;
pub mod occupancy;
pub mod power;
pub mod profile;
pub mod spec;
pub mod stats;
pub mod timing;
pub mod traffic;

pub use arch::{GpuArch, PowerCoefficients};
pub use fault::{FaultKind, FaultPlan, SimFault};
pub use metrics::SimReport;
pub use occupancy::{occupancy, Occupancy};
pub use profile::{DeviceProfile, ProfileError};
pub use spec::{KernelExecSpec, RefAccess, SpecError};
pub use timing::TimingBreakdown;
pub use traffic::{RefTrafficReport, TrafficReport};

/// A GPU device: an architecture plus the simulation entry points.
#[derive(Debug, Clone)]
pub struct Gpu {
    arch: GpuArch,
    fault_plan: Option<FaultPlan>,
}

impl Gpu {
    /// Creates a device for the given architecture.
    pub fn new(arch: GpuArch) -> Self {
        Gpu {
            arch,
            fault_plan: None,
        }
    }

    /// Creates a device whose launches are subject to an injected
    /// [`FaultPlan`] (robustness testing).
    pub fn with_faults(arch: GpuArch, plan: FaultPlan) -> Self {
        Gpu {
            arch,
            fault_plan: Some(plan),
        }
    }

    /// The device's architecture description.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// Simulates one kernel launch, surfacing injected launch failures
    /// as errors.
    ///
    /// # Errors
    ///
    /// Returns [`SimFault`] when the active [`FaultPlan`] injects a
    /// [`FaultKind::LaunchFailure`] for this launch. The other fault
    /// kinds corrupt the report instead of failing the call.
    pub fn try_simulate(&self, spec: &KernelExecSpec) -> Result<SimReport, SimFault> {
        let mut span = eatss_trace::span("sim", "launch");
        if span.is_active() {
            span.arg("kernel", spec.name.as_str());
            span.arg("grid_blocks", spec.grid_blocks);
            span.arg("threads_per_block", spec.threads_per_block);
        }
        let injected = self
            .fault_plan
            .as_ref()
            .and_then(|plan| plan.fault_for(spec));
        if let Some(kind) = injected {
            if eatss_trace::collecting() {
                eatss_trace::counter_add("sim.faults_injected", 1);
                eatss_trace::instant(
                    "sim",
                    "fault",
                    vec![
                        ("kind", eatss_trace::ArgValue::Str(format!("{kind:?}"))),
                        ("kernel", eatss_trace::ArgValue::Str(spec.name.clone())),
                    ],
                );
                span.arg("fault", format!("{kind:?}"));
            }
        }
        match injected {
            Some(FaultKind::LaunchFailure) => {
                return Err(SimFault {
                    kernel: spec.name.clone(),
                    kind: FaultKind::LaunchFailure,
                })
            }
            Some(FaultKind::InvalidReport) => return Ok(SimReport::invalid(&spec.name)),
            Some(FaultKind::NanReport) => {
                let mut report = self.simulate_clean(spec);
                FaultPlan::poison_rates(&mut report);
                return Ok(report);
            }
            None => {}
        }
        let report = self.simulate_clean(spec);
        if span.is_active() {
            span.arg("time_us", report.time_s * 1e6);
            span.arg("avg_power_w", report.avg_power_w);
        }
        Ok(report)
    }

    /// Simulates one kernel launch. Injected launch failures degrade to
    /// an invalid report; use [`Gpu::try_simulate`] to observe them.
    pub fn simulate(&self, spec: &KernelExecSpec) -> SimReport {
        self.try_simulate(spec)
            .unwrap_or_else(|fault| SimReport::invalid(&fault.kernel))
    }

    fn simulate_clean(&self, spec: &KernelExecSpec) -> SimReport {
        // A structurally impossible launch gets no energy number: the
        // report is invalid, never a silently-priced fiction.
        if let Err(err) = spec.validate() {
            if eatss_trace::collecting() {
                eatss_trace::counter_add("sim.invalid_specs", 1);
                eatss_trace::instant(
                    "sim",
                    "invalid_spec",
                    vec![("reason", eatss_trace::ArgValue::Str(err.to_string()))],
                );
            }
            return SimReport::invalid(&spec.name);
        }
        // Degenerate-but-representable specs are clamped onto the
        // consistent envelope; consistent specs pass through untouched.
        if !spec.is_saturated() {
            return self.simulate_stages(&spec.saturated());
        }
        self.simulate_stages(spec)
    }

    fn simulate_stages(&self, spec: &KernelExecSpec) -> SimReport {
        let occ = {
            let _stage = eatss_trace::span("sim", "occupancy");
            occupancy::occupancy(&self.arch, spec)
        };
        let traffic = {
            let _stage = eatss_trace::span("sim", "traffic");
            traffic::model(&self.arch, spec, &occ)
        };
        let timing = {
            let _stage = eatss_trace::span("sim", "timing");
            timing::model(&self.arch, spec, &occ, &traffic)
        };
        let _stage = eatss_trace::span("sim", "power");
        power::finish(&self.arch, spec, &occ, &traffic, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_like_spec(tile_x: i64) -> KernelExecSpec {
        let n: i64 = 2000;
        let tiles = n / tile_x;
        KernelExecSpec {
            name: format!("gemm{tile_x}"),
            grid_blocks: tiles * tiles,
            grid_x_blocks: tiles,
            threads_per_block: 1024.min(tile_x * tile_x),
            points_per_thread: ((tile_x * tile_x) as f64 / 1024.0).ceil() as i64,
            serial_steps_per_block: n / 16,
            flops_total: 2.0 * (n as f64).powi(3),
            elem_bytes: 8,
            shared_bytes_per_block: (tile_x * 16 * 8) as u32,
            l1_avail_bytes: 96 * 1024,
            num_refs: 3,
            refs: vec![
                RefAccess {
                    name: "C".into(),
                    staged_shared: false,
                    tile_footprint_elems: tile_x * tile_x,
                    block_footprint_elems: tile_x * tile_x,
                    total_footprint_elems: n * n,
                    accesses_per_block: tile_x * tile_x * (n / 16),
                    coalesced: true,
                    contiguous_x_elems: tile_x,
                    varies_block_x: true,
                    varies_block_y: true,
                    is_write: true,
                },
                RefAccess {
                    name: "A".into(),
                    staged_shared: true,
                    tile_footprint_elems: tile_x * 16,
                    block_footprint_elems: tile_x * n,
                    total_footprint_elems: n * n,
                    accesses_per_block: tile_x * tile_x * n,
                    coalesced: true,
                    contiguous_x_elems: 16,
                    varies_block_x: false,
                    varies_block_y: true,
                    is_write: false,
                },
                RefAccess {
                    name: "B".into(),
                    staged_shared: false,
                    tile_footprint_elems: 16 * tile_x,
                    block_footprint_elems: n * tile_x,
                    total_footprint_elems: n * n,
                    accesses_per_block: tile_x * tile_x * n,
                    coalesced: true,
                    contiguous_x_elems: tile_x,
                    varies_block_x: true,
                    varies_block_y: false,
                    is_write: false,
                },
            ],
        }
    }

    #[test]
    fn simulate_produces_positive_sane_metrics() {
        let gpu = Gpu::new(GpuArch::ga100());
        let r = gpu.simulate(&gemm_like_spec(32));
        assert!(r.time_s > 0.0 && r.time_s.is_finite());
        assert!(r.avg_power_w > 10.0, "at least idle power");
        assert!(r.avg_power_w <= GpuArch::ga100().tdp_w + 1e-9, "TDP capped");
        assert!(r.energy_j > 0.0);
        assert!(r.gflops > 0.0);
        assert!((r.ppw - r.gflops / r.avg_power_w).abs() < 1e-9);
        assert!(r.l2_sectors_read > 0);
    }

    #[test]
    fn program_aggregation_sums_time_and_energy() {
        let gpu = Gpu::new(GpuArch::ga100());
        let a = gpu.simulate(&gemm_like_spec(32));
        let b = gpu.simulate(&gemm_like_spec(64));
        let seq = SimReport::sequence(&[a.clone(), b.clone()]);
        assert!((seq.time_s - (a.time_s + b.time_s)).abs() < 1e-12);
        assert!((seq.energy_j - (a.energy_j + b.energy_j)).abs() < 1e-9);
        let w_avg = seq.energy_j / seq.time_s;
        assert!((seq.avg_power_w - w_avg).abs() < 1e-9);
    }

    #[test]
    fn xavier_is_slower_and_lower_power_than_ga100() {
        let spec = gemm_like_spec(32);
        let ga = Gpu::new(GpuArch::ga100()).simulate(&spec);
        let xa = Gpu::new(GpuArch::xavier()).simulate(&spec);
        assert!(xa.time_s > ga.time_s);
        assert!(xa.avg_power_w < ga.avg_power_w);
    }

    #[test]
    fn determinism() {
        let gpu = Gpu::new(GpuArch::ga100());
        let a = gpu.simulate(&gemm_like_spec(48));
        let b = gpu.simulate(&gemm_like_spec(48));
        assert_eq!(a.time_s.to_bits(), b.time_s.to_bits());
        assert_eq!(a.avg_power_w.to_bits(), b.avg_power_w.to_bits());
    }

    #[test]
    fn impossible_spec_yields_invalid_report_not_energy() {
        let gpu = Gpu::new(GpuArch::ga100());
        let mut spec = gemm_like_spec(32);
        spec.grid_blocks = 0;
        let r = gpu.simulate(&spec);
        assert!(!r.valid, "a zero-block launch must not be priced");
        let mut nan = gemm_like_spec(32);
        nan.flops_total = f64::NAN;
        assert!(!gpu.simulate(&nan).valid);
        let mut neg = gemm_like_spec(32);
        neg.refs[0].accesses_per_block = -1;
        assert!(!gpu.simulate(&neg).valid);
    }

    #[test]
    fn inconsistent_spec_is_saturated_before_pricing() {
        let gpu = Gpu::new(GpuArch::ga100());
        let mut spec = gemm_like_spec(32);
        // A contiguity run longer than the whole array.
        spec.refs[1].contiguous_x_elems = spec.refs[1].total_footprint_elems * 10;
        let implicit = gpu.simulate(&spec);
        let explicit = gpu.simulate(&spec.saturated());
        assert!(implicit.valid);
        assert_eq!(implicit.time_s.to_bits(), explicit.time_s.to_bits());
        assert_eq!(implicit.energy_j.to_bits(), explicit.energy_j.to_bits());
        // Consistent specs take the zero-copy path and are untouched.
        let clean = gemm_like_spec(32);
        assert!(clean.is_saturated());
        let a = gpu.simulate(&clean);
        let b = gpu.simulate(&clean.saturated());
        assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    }

    #[test]
    fn injected_launch_failure_errors_and_degrades() {
        let plan = FaultPlan::new(3).force("gemm32", FaultKind::LaunchFailure);
        let gpu = Gpu::with_faults(GpuArch::ga100(), plan);
        let spec = gemm_like_spec(32);
        let err = gpu.try_simulate(&spec).unwrap_err();
        assert_eq!(err.kind, FaultKind::LaunchFailure);
        assert_eq!(err.kernel, "gemm32");
        // The infallible entry point degrades to an invalid report.
        let r = gpu.simulate(&spec);
        assert!(!r.valid && r.time_s.is_infinite());
        // Unrelated launches are untouched.
        assert!(gpu.try_simulate(&gemm_like_spec(64)).unwrap().valid);
    }

    #[test]
    fn injected_nan_report_stays_valid_but_poisoned() {
        let plan = FaultPlan::new(3).force("gemm32", FaultKind::NanReport);
        let gpu = Gpu::with_faults(GpuArch::ga100(), plan);
        let r = gpu.try_simulate(&gemm_like_spec(32)).unwrap();
        assert!(r.valid, "a NaN report masquerades as a valid measurement");
        assert!(r.ppw.is_nan() && r.gflops.is_nan() && r.energy_j.is_nan());
        assert!(r.time_s.is_finite());
    }

    #[test]
    fn injected_invalid_report_and_program_propagation() {
        let plan = FaultPlan::new(3).force("gemm32", FaultKind::InvalidReport);
        let gpu = Gpu::with_faults(GpuArch::ga100(), plan);
        let r = gpu.try_simulate(&gemm_like_spec(32)).unwrap();
        assert!(!r.valid);
        // One invalid launch poisons the whole program sequence.
        let seq = SimReport::sequence(&[gpu.simulate(&gemm_like_spec(64)), r]);
        assert!(!seq.valid);
    }
}
