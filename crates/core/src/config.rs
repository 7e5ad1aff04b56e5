//! EATSS configuration knobs (§IV-I, §IV-J, §IV-B).

use eatss_gpusim::GpuArch;
use eatss_ppcg::CompileOptions;

/// Floating-point precision (§IV-I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Single precision: `FP_factor = 1`.
    F32,
    /// Double precision: `FP_factor = 2` (the paper's default).
    F64,
}

impl Precision {
    /// The `FP_factor` scaling of §IV-I.
    pub fn fp_factor(self) -> i64 {
        match self {
            Precision::F32 => 1,
            Precision::F64 => 2,
        }
    }

    /// Element width in bytes.
    pub fn elem_bytes(self) -> u8 {
        match self {
            Precision::F32 => 4,
            Precision::F64 => 8,
        }
    }
}

/// How the `B_size ≤ T_P_B` constraint of §IV-F is interpreted.
///
/// The paper's worked example (§IV-A: `T_i=16, T_j=384`) exceeds a
/// literal 1024-thread block, because PPCG caps the *launched* block at
/// `T_P_B` and gives each thread several points. `Virtual` reproduces
/// that reading (the register constraint of §IV-G still bounds the
/// product); `Strict` enforces the literal inequality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ThreadBlockCap {
    /// No explicit `B_size` cap; registers/SM bound the product (the
    /// interpretation consistent with the paper's worked example).
    #[default]
    Virtual,
    /// Literal `B_size ≤ T_P_B`.
    Strict,
}

/// One EATSS configuration point.
#[derive(Debug, Clone, PartialEq)]
pub struct EatssConfig {
    /// Shared-memory split factor in `[0, 1]` (§IV-J): 0 gives all
    /// combined capacity to L1, 1 to shared memory.
    pub split_factor: f64,
    /// Warp fraction (§IV-B / §V-D): the warp-alignment factor is
    /// `warp_fraction × T_P_W` (e.g. 0.5 → multiples of 16).
    pub warp_fraction: f64,
    /// Precision (§IV-I).
    pub precision: Precision,
    /// Thread-block cap interpretation (§IV-F).
    pub cap: ThreadBlockCap,
}

/// The knob of an [`EatssConfig`] that lies outside its range — what
/// [`EatssConfig::validate`] reports to a front end, which names the
/// flag or wire field itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigRangeError {
    /// `split_factor` is not a number in `[0, 1]`.
    SplitFactor,
    /// `warp_fraction` is not a number in `(0, 1]`.
    WarpFraction,
}

impl ConfigRangeError {
    /// The range the knob must lie in, phrased to follow "expected".
    pub fn expected(self) -> &'static str {
        match self {
            ConfigRangeError::SplitFactor => "number in [0, 1]",
            ConfigRangeError::WarpFraction => "number in (0, 1]",
        }
    }
}

impl Default for EatssConfig {
    /// The paper's default operating point: FP64, 50% split, half-warp
    /// alignment (the §IV-A example).
    fn default() -> Self {
        EatssConfig {
            split_factor: 0.5,
            warp_fraction: 0.5,
            precision: Precision::F64,
            cap: ThreadBlockCap::Virtual,
        }
    }
}

impl EatssConfig {
    /// Configuration with a given split factor, other knobs default.
    pub fn with_split(split_factor: f64) -> Self {
        EatssConfig {
            split_factor,
            ..EatssConfig::default()
        }
    }

    /// Checks the knobs a user can set freely against the ranges the
    /// formulation is defined on: `split_factor ∈ [0, 1]` and
    /// `warp_fraction ∈ (0, 1]`, both finite (a NaN is in no range).
    /// Every front end asks here before solving, so none answers for a
    /// configuration another would refuse.
    ///
    /// # Errors
    ///
    /// The first knob out of range.
    pub fn validate(&self) -> Result<(), ConfigRangeError> {
        if !(0.0..=1.0).contains(&self.split_factor) {
            return Err(ConfigRangeError::SplitFactor);
        }
        if !(self.warp_fraction > 0.0 && self.warp_fraction <= 1.0) {
            return Err(ConfigRangeError::WarpFraction);
        }
        Ok(())
    }

    /// The warp-alignment factor in threads (≥ 1).
    pub fn warp_alignment_factor(&self, arch: &GpuArch) -> i64 {
        ((arch.threads_per_warp as f64 * self.warp_fraction).round() as i64).max(1)
    }

    /// The PPCG options corresponding to this configuration's split and
    /// precision.
    pub fn compile_options(&self, arch: &GpuArch) -> CompileOptions {
        CompileOptions::with_split(arch, self.split_factor, self.precision.elem_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_factor_matches_paper() {
        assert_eq!(Precision::F32.fp_factor(), 1);
        assert_eq!(Precision::F64.fp_factor(), 2);
        assert_eq!(Precision::F64.elem_bytes(), 8);
    }

    #[test]
    fn default_is_paper_operating_point() {
        let c = EatssConfig::default();
        assert_eq!(c.split_factor, 0.5);
        assert_eq!(c.precision, Precision::F64);
        assert_eq!(c.cap, ThreadBlockCap::Virtual);
        assert_eq!(c.warp_alignment_factor(&GpuArch::ga100()), 16);
    }

    #[test]
    fn warp_fractions_of_section_vd() {
        let arch = GpuArch::ga100();
        for (frac, waf) in [(0.125, 4), (0.25, 8), (0.5, 16), (1.0, 32)] {
            let c = EatssConfig {
                warp_fraction: frac,
                ..EatssConfig::default()
            };
            assert_eq!(c.warp_alignment_factor(&arch), waf);
        }
    }

    #[test]
    fn validate_holds_the_ranges() {
        let with = |split_factor, warp_fraction| EatssConfig {
            split_factor,
            warp_fraction,
            ..EatssConfig::default()
        };
        for ok in [with(0.0, 1.0), with(1.0, 0.03125), EatssConfig::default()] {
            assert_eq!(ok.validate(), Ok(()));
        }
        for split in [-1.0, 2.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                with(split, 0.5).validate(),
                Err(ConfigRangeError::SplitFactor)
            );
        }
        for frac in [0.0, -1.0, 1.5, f64::NAN] {
            assert_eq!(
                with(0.5, frac).validate(),
                Err(ConfigRangeError::WarpFraction)
            );
        }
    }

    #[test]
    fn compile_options_follow_split() {
        let arch = GpuArch::ga100();
        let o = EatssConfig::with_split(0.25).compile_options(&arch);
        assert_eq!(o.l1_avail_bytes, 144 * 1024);
        assert_eq!(o.shared_budget_bytes, 48 * 1024);
        assert_eq!(o.elem_bytes, 8);
    }
}
