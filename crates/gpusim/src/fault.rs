//! Deterministic fault injection.
//!
//! Real measurement campaigns fail in mundane ways: a launch aborts with a
//! driver error, a power sample comes back empty, a counter overflows into
//! garbage. The EATSS pipeline must degrade gracefully through all of
//! them, so this module lets tests inject exactly those failures into the
//! simulator — *deterministically*, seeded the same way as [`crate::noise`]
//! so a failing run replays bit-for-bit.

use crate::metrics::SimReport;
use crate::noise;
use crate::spec::KernelExecSpec;
use std::error::Error;
use std::fmt;

/// The kinds of failure a [`FaultPlan`] can inject into a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The launch aborts outright (driver error, unlaunchable config):
    /// [`Gpu::try_simulate`](crate::Gpu::try_simulate) returns an error.
    LaunchFailure,
    /// The launch runs but the measurement comes back flagged invalid
    /// (infinite time, zero throughput) — like an empty `nvidia-smi`
    /// sample window.
    InvalidReport,
    /// The launch runs and *looks* valid, but the derived rates are NaN —
    /// like a counter that overflowed mid-run. The nastiest case: it
    /// poisons naive comparisons downstream instead of failing loudly.
    NanReport,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::LaunchFailure => write!(f, "launch failure"),
            FaultKind::InvalidReport => write!(f, "invalid report"),
            FaultKind::NanReport => write!(f, "NaN report"),
        }
    }
}

/// A launch that failed under an injected [`FaultKind::LaunchFailure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFault {
    /// Name of the kernel whose launch failed.
    pub kernel: String,
    /// The injected failure kind.
    pub kind: FaultKind,
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulated fault on kernel `{}`: {}",
            self.kernel, self.kind
        )
    }
}

impl Error for SimFault {}

/// A deterministic schedule of injected failures.
///
/// Two mechanisms, combinable:
///
/// * **rates** — each launch draws a uniform value from a hash of the
///   plan seed and the launch's [`KernelExecSpec::fingerprint`], and
///   fails with the configured per-kind probabilities. The same launch
///   under the same plan always faults (or not) identically.
/// * **forced faults** — exact kernel names that always fail with a
///   given kind, for pinpoint tests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    launch_failure_rate: f64,
    invalid_rate: f64,
    nan_rate: f64,
    forced: Vec<(String, FaultKind)>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults configured yet.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the per-launch probabilities of each fault kind. The sum is
    /// clamped to 1 by precedence: launch failure, then invalid, then NaN.
    pub fn with_rates(mut self, launch_failure: f64, invalid: f64, nan: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&launch_failure)
                && (0.0..=1.0).contains(&invalid)
                && (0.0..=1.0).contains(&nan),
            "fault rates must be probabilities"
        );
        self.launch_failure_rate = launch_failure;
        self.invalid_rate = invalid;
        self.nan_rate = nan;
        self
    }

    /// Forces every launch of the kernel named `name` to fail with `kind`
    /// (checked before the stochastic rates).
    pub fn force(mut self, name: &str, kind: FaultKind) -> Self {
        self.forced.push((name.to_owned(), kind));
        self
    }

    /// The fault injected into this launch, if any. Pure function of the
    /// plan and the spec.
    pub fn fault_for(&self, spec: &KernelExecSpec) -> Option<FaultKind> {
        if let Some((_, kind)) = self.forced.iter().find(|(n, _)| *n == spec.name) {
            return Some(*kind);
        }
        let total = self.launch_failure_rate + self.invalid_rate + self.nan_rate;
        if total <= 0.0 {
            return None;
        }
        // Map the signed noise unit to [0, 1) and walk the cumulative
        // distribution.
        let u = (noise::signed_unit(self.seed, spec.fingerprint()) + 1.0) / 2.0;
        if u < self.launch_failure_rate {
            Some(FaultKind::LaunchFailure)
        } else if u < self.launch_failure_rate + self.invalid_rate {
            Some(FaultKind::InvalidReport)
        } else if u < self.launch_failure_rate + self.invalid_rate + self.nan_rate {
            Some(FaultKind::NanReport)
        } else {
            None
        }
    }

    /// Corrupts a clean report the way a [`FaultKind::NanReport`] fault
    /// does: the report stays `valid` but every derived rate is NaN. The
    /// underlying totals (FLOPs, energy) are poisoned too, so aggregation
    /// that recomputes rates from totals — [`SimReport::sequence`],
    /// [`SimReport::repeated`] — propagates the NaN instead of laundering
    /// it away. Time stays finite: a corrupted counter readout still has
    /// a real wall-clock duration.
    pub fn poison_rates(report: &mut SimReport) {
        report.ppw = f64::NAN;
        report.gflops = f64::NAN;
        report.energy_j = f64::NAN;
        report.avg_power_w = f64::NAN;
        report.flops_total = f64::NAN;
        report.constant_power_w = f64::NAN;
        report.static_power_w = f64::NAN;
        report.dynamic_power_w = f64::NAN;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RefAccess;

    fn spec(name: &str) -> KernelExecSpec {
        KernelExecSpec {
            name: name.into(),
            grid_blocks: 64,
            grid_x_blocks: 8,
            threads_per_block: 128,
            points_per_thread: 1,
            serial_steps_per_block: 1,
            flops_total: 1e6,
            elem_bytes: 8,
            shared_bytes_per_block: 0,
            l1_avail_bytes: 128 * 1024,
            num_refs: 1,
            refs: vec![RefAccess::streaming("x", 10_000, 128, false)],
        }
    }

    #[test]
    fn empty_plan_never_faults() {
        let plan = FaultPlan::new(7);
        for i in 0..50 {
            assert_eq!(plan.fault_for(&spec(&format!("k{i}"))), None);
        }
    }

    #[test]
    fn forced_fault_beats_rates() {
        let plan = FaultPlan::new(7).force("bad", FaultKind::NanReport);
        assert_eq!(plan.fault_for(&spec("bad")), Some(FaultKind::NanReport));
        assert_eq!(plan.fault_for(&spec("good")), None);
    }

    #[test]
    fn rates_are_deterministic_and_roughly_proportional() {
        let plan = FaultPlan::new(42).with_rates(0.2, 0.2, 0.2);
        let verdicts: Vec<Option<FaultKind>> = (0..500)
            .map(|i| plan.fault_for(&spec(&format!("k{i}"))))
            .collect();
        let again: Vec<Option<FaultKind>> = (0..500)
            .map(|i| plan.fault_for(&spec(&format!("k{i}"))))
            .collect();
        assert_eq!(verdicts, again, "same plan, same spec, same verdict");
        let count = |k: FaultKind| verdicts.iter().filter(|v| **v == Some(k)).count();
        for kind in [
            FaultKind::LaunchFailure,
            FaultKind::InvalidReport,
            FaultKind::NanReport,
        ] {
            let c = count(kind);
            assert!((50..=150).contains(&c), "{kind}: {c}/500 at rate 0.2");
        }
        assert!(verdicts.iter().filter(|v| v.is_none()).count() >= 100);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = FaultPlan::new(1).with_rates(0.3, 0.0, 0.0);
        let b = FaultPlan::new(2).with_rates(0.3, 0.0, 0.0);
        let verdict = |p: &FaultPlan| -> Vec<bool> {
            (0..200)
                .map(|i| p.fault_for(&spec(&format!("k{i}"))).is_some())
                .collect()
        };
        assert_ne!(verdict(&a), verdict(&b));
    }

    #[test]
    #[should_panic(expected = "probabilities")]
    fn out_of_range_rate_panics() {
        let _ = FaultPlan::new(0).with_rates(1.5, 0.0, 0.0);
    }
}
