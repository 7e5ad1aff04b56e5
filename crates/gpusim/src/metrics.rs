//! Simulation reports — the measurements the paper collects with
//! `nvidia-smi` / `tegrastats` / Nsight Compute.

use std::fmt;

/// The observable result of one (or a sequence of) kernel launches.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Kernel or program name.
    pub name: String,
    /// Whether the launch was executable at all.
    pub valid: bool,
    /// Wall-clock execution time, seconds.
    pub time_s: f64,
    /// Average power during execution, watts.
    pub avg_power_w: f64,
    /// Constant (board) power component, watts.
    pub constant_power_w: f64,
    /// Static (leakage) power component, watts.
    pub static_power_w: f64,
    /// Dynamic power component, watts.
    pub dynamic_power_w: f64,
    /// Energy = power × time, joules.
    pub energy_j: f64,
    /// Total floating-point operations executed.
    pub flops_total: f64,
    /// Achieved GFLOP/s.
    pub gflops: f64,
    /// Performance per watt, GFLOP/s/W (the paper's PPW metric).
    pub ppw: f64,
    /// L2 sectors read (the Fig. 9 `lts__t_sectors..read` proxy).
    pub l2_sectors_read: u64,
    /// L2 sectors written.
    pub l2_sectors_written: u64,
    /// DRAM traffic, bytes.
    pub dram_bytes: f64,
    /// SM occupancy fraction.
    pub occupancy: f64,
    /// Fraction of SMs active in the first wave.
    pub active_sm_fraction: f64,
    /// Whether the L1 carve-out was thrashed.
    pub l1_thrash: bool,
    /// Whether the TDP cap forced a frequency reduction (DVFS).
    pub dvfs_throttled: bool,
}

impl SimReport {
    /// A report for an unexecutable launch: infinite time, zero
    /// throughput.
    pub fn invalid(name: &str) -> Self {
        SimReport {
            name: name.to_owned(),
            valid: false,
            time_s: f64::INFINITY,
            avg_power_w: 0.0,
            constant_power_w: 0.0,
            static_power_w: 0.0,
            dynamic_power_w: 0.0,
            energy_j: f64::INFINITY,
            flops_total: 0.0,
            gflops: 0.0,
            ppw: 0.0,
            l2_sectors_read: 0,
            l2_sectors_written: 0,
            dram_bytes: 0.0,
            occupancy: 0.0,
            active_sm_fraction: 0.0,
            l1_thrash: false,
            dvfs_throttled: false,
        }
    }

    /// Applies the clock-boost / thermal power ramp of a *measurement*:
    /// over an execution of length `time_s`, the average power observed by
    /// a sampler is `idle + (steady − idle)·(1 − (τ/t)(1 − e^{−t/τ}))`.
    /// Energy is recomputed from the ramped power. Call once, at the
    /// program level (back-to-back launches keep the clocks boosted).
    pub fn apply_power_ramp(&mut self, idle_w: f64, tau_s: f64) {
        // A non-finite power level cannot be ramped: `(NaN - idle).max(0.0)`
        // would silently replace a corrupted measurement with idle power.
        // Leave the report untouched so the corruption stays visible.
        if !self.valid
            || !self.time_s.is_finite()
            || self.time_s <= 0.0
            || tau_s <= 0.0
            || !self.avg_power_w.is_finite()
        {
            return;
        }
        let t = self.time_s;
        let frac = 1.0 - (tau_s / t) * (1.0 - (-t / tau_s).exp());
        let frac = frac.clamp(0.0, 1.0);
        self.avg_power_w = idle_w + (self.avg_power_w - idle_w).max(0.0) * frac;
        self.dynamic_power_w *= frac;
        self.static_power_w = self.avg_power_w - self.constant_power_w - self.dynamic_power_w;
        self.energy_j = self.avg_power_w * self.time_s;
        self.ppw = if self.avg_power_w > 0.0 {
            self.gflops / self.avg_power_w
        } else {
            0.0
        };
    }

    /// The report of launching this kernel `n` times back-to-back (PPCG
    /// re-launches stencil grids once per time step): time, energy,
    /// counters and FLOPs scale by `n`; rates (power, GFLOP/s, PPW) are
    /// unchanged. It takes the report, so scaling one costs no copy.
    pub fn repeated(self, n: i64) -> SimReport {
        let n = n.max(1);
        let mut r = self;
        if !r.valid {
            return r;
        }
        r.time_s *= n as f64;
        r.energy_j *= n as f64;
        r.flops_total *= n as f64;
        r.l2_sectors_read = r.l2_sectors_read.saturating_mul(n as u64);
        r.l2_sectors_written = r.l2_sectors_written.saturating_mul(n as u64);
        r.dram_bytes *= n as f64;
        r
    }

    /// Aggregates a sequence of launches (e.g. the two matmuls of 2mm):
    /// times/energies/counters add, power is the time-weighted average,
    /// GFLOP/s and PPW are recomputed from the totals.
    pub fn sequence(reports: &[SimReport]) -> SimReport {
        if reports.is_empty() {
            return SimReport::invalid("empty");
        }
        if reports.iter().any(|r| !r.valid) {
            return SimReport::invalid(&reports[0].name);
        }
        let time_s: f64 = reports.iter().map(|r| r.time_s).sum();
        let energy_j: f64 = reports.iter().map(|r| r.energy_j).sum();
        let flops_total: f64 = reports.iter().map(|r| r.flops_total).sum();
        let avg_power_w = if time_s > 0.0 { energy_j / time_s } else { 0.0 };
        let gflops = if time_s > 0.0 {
            flops_total / 1e9 / time_s
        } else {
            0.0
        };
        let weighted = |f: fn(&SimReport) -> f64| -> f64 {
            if time_s > 0.0 {
                reports.iter().map(|r| f(r) * r.time_s).sum::<f64>() / time_s
            } else {
                0.0
            }
        };
        SimReport {
            name: reports[0].name.clone(),
            valid: true,
            time_s,
            avg_power_w,
            constant_power_w: weighted(|r| r.constant_power_w),
            static_power_w: weighted(|r| r.static_power_w),
            dynamic_power_w: weighted(|r| r.dynamic_power_w),
            energy_j,
            flops_total,
            gflops,
            ppw: if avg_power_w > 0.0 {
                gflops / avg_power_w
            } else {
                0.0
            },
            l2_sectors_read: reports.iter().map(|r| r.l2_sectors_read).sum(),
            l2_sectors_written: reports.iter().map(|r| r.l2_sectors_written).sum(),
            dram_bytes: reports.iter().map(|r| r.dram_bytes).sum(),
            occupancy: weighted(|r| r.occupancy),
            active_sm_fraction: weighted(|r| r.active_sm_fraction),
            l1_thrash: reports.iter().any(|r| r.l1_thrash),
            dvfs_throttled: reports.iter().any(|r| r.dvfs_throttled),
        }
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.valid {
            return write!(f, "{}: invalid launch", self.name);
        }
        write!(
            f,
            "{}: {:.4} s, {:.1} W, {:.2} J, {:.1} GFLOP/s, {:.2} GFLOP/s/W",
            self.name, self.time_s, self.avg_power_w, self.energy_j, self.gflops, self.ppw
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(time: f64, power: f64, flops: f64) -> SimReport {
        SimReport {
            name: "k".into(),
            valid: true,
            time_s: time,
            avg_power_w: power,
            constant_power_w: 10.0,
            static_power_w: 20.0,
            dynamic_power_w: power - 30.0,
            energy_j: time * power,
            flops_total: flops,
            gflops: flops / 1e9 / time,
            ppw: flops / 1e9 / time / power,
            l2_sectors_read: 100,
            l2_sectors_written: 10,
            dram_bytes: 1e6,
            occupancy: 0.5,
            active_sm_fraction: 1.0,
            l1_thrash: false,
            dvfs_throttled: false,
        }
    }

    #[test]
    fn sequence_adds_and_weighs() {
        let a = mk(1.0, 100.0, 1e12);
        let b = mk(3.0, 200.0, 3e12);
        let s = SimReport::sequence(&[a, b]);
        assert!((s.time_s - 4.0).abs() < 1e-12);
        assert!((s.energy_j - 700.0).abs() < 1e-9);
        assert!((s.avg_power_w - 175.0).abs() < 1e-9);
        assert!((s.gflops - 1000.0).abs() < 1e-9);
        assert_eq!(s.l2_sectors_read, 200);
    }

    #[test]
    fn sequence_of_invalid_is_invalid() {
        let a = mk(1.0, 100.0, 1e12);
        let bad = SimReport::invalid("k");
        let s = SimReport::sequence(&[a, bad]);
        assert!(!s.valid);
        assert!(s.time_s.is_infinite());
        assert!(!SimReport::sequence(&[]).valid);
    }

    #[test]
    fn display_formats() {
        let r = mk(0.5, 100.0, 1e12);
        let s = r.to_string();
        assert!(s.contains("GFLOP/s/W"));
        assert!(SimReport::invalid("x").to_string().contains("invalid"));
    }

    #[test]
    fn power_ramp_short_runs_average_near_idle() {
        let mut short = mk(0.001, 200.0, 1e9); // 1 ms at tau = 15 ms
        short.apply_power_ramp(60.0, 0.015);
        assert!(short.avg_power_w < 75.0, "got {}", short.avg_power_w);
        let mut long = mk(1.0, 200.0, 1e12); // 1 s >> tau
        long.apply_power_ramp(60.0, 0.015);
        assert!(long.avg_power_w > 195.0, "got {}", long.avg_power_w);
        // Energy and PPW are recomputed consistently.
        assert!((long.energy_j - long.avg_power_w * long.time_s).abs() < 1e-9);
        assert!((long.ppw - long.gflops / long.avg_power_w).abs() < 1e-9);
    }

    #[test]
    fn power_ramp_is_monotone_in_duration() {
        let mut prev = 0.0;
        for t in [0.001, 0.01, 0.1, 1.0] {
            let mut r = mk(t, 200.0, 1e9);
            r.apply_power_ramp(60.0, 0.015);
            assert!(r.avg_power_w > prev, "t = {t}");
            prev = r.avg_power_w;
        }
    }

    #[test]
    fn power_ramp_ignores_invalid_and_degenerate() {
        let mut bad = SimReport::invalid("x");
        bad.apply_power_ramp(60.0, 0.015);
        assert!(!bad.valid);
        let mut zero_tau = mk(1.0, 200.0, 1e9);
        zero_tau.apply_power_ramp(60.0, 0.0);
        assert!(
            (zero_tau.avg_power_w - 200.0).abs() < 1e-9,
            "no-op on tau=0"
        );
    }

    #[test]
    fn repeated_scales_totals_not_rates() {
        let r = mk(2.0, 150.0, 4e12);
        let r3 = r.clone().repeated(3);
        assert!((r3.time_s - 6.0).abs() < 1e-12);
        assert!((r3.energy_j - 3.0 * r.energy_j).abs() < 1e-9);
        assert!((r3.flops_total - 1.2e13).abs() < 1.0);
        assert!((r3.avg_power_w - r.avg_power_w).abs() < 1e-12);
        assert_eq!(r3.l2_sectors_read, 300);
        // n <= 1 is identity.
        assert_eq!(r.clone().repeated(0).time_s.to_bits(), r.time_s.to_bits());
    }

    #[test]
    fn singleton_sequence_is_identity_on_totals() {
        let a = mk(2.0, 150.0, 2e12);
        let s = SimReport::sequence(std::slice::from_ref(&a));
        assert!((s.time_s - a.time_s).abs() < 1e-12);
        assert!((s.energy_j - a.energy_j).abs() < 1e-12);
        assert!((s.ppw - a.ppw).abs() < 1e-9);
    }
}
