//! Data-driven device profiles: the [`GpuArch`] parameter set as a
//! loadable, validatable, pretty-printable document.
//!
//! The paper's device dependence (GA100 vs Xavier flip winners in
//! Figs 7/8/10) makes the architecture description an *input*, not a
//! constant. A [`DeviceProfile`] wraps a [`GpuArch`] with:
//!
//! * a zero-dependency JSON loader (via [`eatss_trace::json`]);
//! * [`DeviceProfile::validate`], which rejects non-physical profiles —
//!   zero SMs, negative energy coefficients, bandwidth inversions, a TDP
//!   below the idle floor;
//! * a pretty-printer ([`DeviceProfile::to_json_pretty`]) whose output
//!   re-parses to a bit-identical profile (Rust's `f64` Display emits the
//!   shortest round-tripping decimal);
//! * a registry of committed builtin profiles (`profiles/*.json`,
//!   embedded at compile time) behind [`DeviceProfile::builtin`].
//!
//! The legacy constructors [`GpuArch::ga100`] / [`GpuArch::xavier`] are
//! re-expressed on top of the committed profiles and pinned field-equal
//! to their historical literal values by test.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::OnceLock;

use eatss_trace::json::{self, Json};

use crate::arch::{GpuArch, PowerCoefficients};

/// Why a profile failed to load or validate.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileError {
    /// The document is not syntactically valid JSON, or contains a field
    /// the schema does not know.
    Parse(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field is present but has the wrong type or range.
    BadField {
        /// The offending field name.
        field: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The profile parsed but describes a non-physical device.
    Invalid(String),
    /// The profile file could not be read.
    Io(String),
    /// A device argument names neither a builtin profile nor a file.
    UnknownDevice(String),
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Parse(msg) => write!(f, "profile parse error: {msg}"),
            ProfileError::MissingField(name) => write!(f, "profile is missing field `{name}`"),
            ProfileError::BadField { field, reason } => {
                write!(f, "profile field `{field}`: {reason}")
            }
            ProfileError::Invalid(msg) => write!(f, "non-physical profile: {msg}"),
            ProfileError::Io(msg) => write!(f, "profile io error: {msg}"),
            ProfileError::UnknownDevice(spec) => write!(
                f,
                "unknown device `{spec}` (expected a builtin profile {:?} or a profile file path)",
                DeviceProfile::builtin_names()
            ),
        }
    }
}

impl std::error::Error for ProfileError {}

/// A loadable device description wrapping one [`GpuArch`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    arch: GpuArch,
}

/// The committed profile portfolio, embedded at compile time. Names are
/// the lowercase file stems under `crates/gpusim/profiles/`.
const BUILTIN_SOURCES: &[(&str, &str)] = &[
    ("ga100", include_str!("../profiles/ga100.json")),
    ("xavier", include_str!("../profiles/xavier.json")),
    ("h100", include_str!("../profiles/h100.json")),
    ("orin", include_str!("../profiles/orin.json")),
    ("nano", include_str!("../profiles/nano.json")),
];

fn builtin_table() -> &'static Vec<(&'static str, DeviceProfile)> {
    static TABLE: OnceLock<Vec<(&'static str, DeviceProfile)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        BUILTIN_SOURCES
            .iter()
            .map(|(name, source)| {
                let profile = DeviceProfile::from_json(source)
                    .unwrap_or_else(|e| panic!("builtin profile `{name}` does not parse: {e}"));
                profile
                    .validate()
                    .unwrap_or_else(|e| panic!("builtin profile `{name}` is invalid: {e}"));
                (*name, profile)
            })
            .collect()
    })
}

impl DeviceProfile {
    /// Wraps an already-constructed architecture.
    pub fn new(arch: GpuArch) -> Self {
        DeviceProfile { arch }
    }

    /// The wrapped architecture.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// Unwraps into the architecture.
    pub fn into_arch(self) -> GpuArch {
        self.arch
    }

    /// The names of the committed builtin profiles, in portfolio order.
    pub fn builtin_names() -> Vec<&'static str> {
        builtin_table().iter().map(|(name, _)| *name).collect()
    }

    /// Looks up a committed builtin profile by (case-insensitive) name.
    pub fn builtin(name: &str) -> Option<DeviceProfile> {
        let lower = name.to_ascii_lowercase();
        builtin_table()
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, p)| p.clone())
    }

    /// Resolves a device argument (`--arch`, `--profiles`): a builtin
    /// profile name, else the path of an existing profile file.
    ///
    /// # Errors
    ///
    /// [`ProfileError::UnknownDevice`] when `spec` is neither; otherwise
    /// the same conditions as [`DeviceProfile::load`].
    pub fn resolve(spec: &str) -> Result<Self, ProfileError> {
        match Self::builtin(spec) {
            Some(profile) => Ok(profile),
            None if Path::new(spec).exists() => Self::load(spec),
            None => Err(ProfileError::UnknownDevice(spec.to_owned())),
        }
    }

    /// Reads and parses a profile file, then validates it.
    ///
    /// # Errors
    ///
    /// [`ProfileError::Io`] when the file cannot be read; otherwise the
    /// same conditions as [`DeviceProfile::from_json`] and
    /// [`DeviceProfile::validate`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ProfileError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ProfileError::Io(format!("{}: {e}", path.display())))?;
        let profile = Self::from_json(&text)?;
        profile.validate()?;
        Ok(profile)
    }

    /// Parses the JSON profile format (see `crates/gpusim/profiles/` for
    /// the canonical shape). Does not validate — follow with
    /// [`DeviceProfile::validate`] before trusting the numbers (or use
    /// [`DeviceProfile::load`]).
    ///
    /// # Errors
    ///
    /// [`ProfileError::Parse`] on syntax errors or unknown fields,
    /// [`ProfileError::MissingField`] / [`ProfileError::BadField`] on
    /// schema violations.
    pub fn from_json(text: &str) -> Result<Self, ProfileError> {
        let value = Json::parse(text).map_err(ProfileError::Parse)?;
        let object = value
            .as_object()
            .ok_or_else(|| ProfileError::Parse("top level is not an object".to_owned()))?;
        let mut raw = RawProfile::default();
        for (key, field) in object {
            match key.as_str() {
                "name" => {
                    raw.name = Some(
                        field
                            .as_str()
                            .ok_or_else(|| bad(key, "expected a string"))?
                            .to_owned(),
                    );
                }
                "power" => {
                    let table = field
                        .as_object()
                        .ok_or_else(|| bad(key, "expected an object"))?;
                    for (coeff, v) in table {
                        let n = v
                            .as_f64()
                            .ok_or_else(|| bad(&format!("power.{coeff}"), "expected a number"))?;
                        raw.power.insert(coeff.clone(), n);
                    }
                }
                _ => {
                    let n = field
                        .as_f64()
                        .ok_or_else(|| bad(key, "expected a number"))?;
                    raw.scalars.insert(key.clone(), n);
                }
            }
        }
        raw.into_profile()
    }

    /// Pretty-prints the canonical JSON form: fixed field order, 2-space
    /// indent, trailing newline. Re-parsing the output yields a
    /// bit-identical profile; the committed `profiles/*.json` are byte-
    /// identical to this rendering (pinned by test).
    pub fn to_json_pretty(&self) -> String {
        let a = &self.arch;
        let p = &a.power;
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"name\": \"{}\",\n", json::escape(&a.name)));
        for (key, value) in self.scalar_fields() {
            s.push_str(&format!("  \"{key}\": {value},\n"));
        }
        s.push_str("  \"power\": {\n");
        let coeffs = power_fields(p);
        for (i, (key, value)) in coeffs.iter().enumerate() {
            let comma = if i + 1 == coeffs.len() { "" } else { "," };
            s.push_str(&format!("    \"{key}\": {value}{comma}\n"));
        }
        s.push_str("  }\n}\n");
        s
    }

    /// The canonical printed form of every non-name, non-power field.
    fn scalar_fields(&self) -> Vec<(&'static str, String)> {
        let a = &self.arch;
        vec![
            ("sm_count", a.sm_count.to_string()),
            ("max_threads_per_block", a.max_threads_per_block.to_string()),
            ("threads_per_warp", a.threads_per_warp.to_string()),
            ("max_threads_per_sm", a.max_threads_per_sm.to_string()),
            ("max_blocks_per_sm", a.max_blocks_per_sm.to_string()),
            ("regs_per_sm", a.regs_per_sm.to_string()),
            ("regs_per_thread", a.regs_per_thread.to_string()),
            ("l1_shared_bytes", a.l1_shared_bytes.to_string()),
            ("max_shared_per_block", a.max_shared_per_block.to_string()),
            ("l2_bytes", a.l2_bytes.to_string()),
            ("dram_bytes", a.dram_bytes.to_string()),
            ("peak_fp32_gflops", json::number(a.peak_fp32_gflops)),
            ("peak_fp64_gflops", json::number(a.peak_fp64_gflops)),
            (
                "peak_fp64_tensor_gflops",
                json::number(a.peak_fp64_tensor_gflops),
            ),
            ("dram_bw_gbs", json::number(a.dram_bw_gbs)),
            ("l2_bw_gbs", json::number(a.l2_bw_gbs)),
            ("shared_bw_gbs", json::number(a.shared_bw_gbs)),
            ("tdp_w", json::number(a.tdp_w)),
            ("launch_overhead_s", json::number(a.launch_overhead_s)),
            ("barrier_overhead_s", json::number(a.barrier_overhead_s)),
            ("dram_row_chunk_bytes", json::number(a.dram_row_chunk_bytes)),
            ("power_ramp_tau_s", json::number(a.power_ramp_tau_s)),
        ]
    }

    /// Rejects non-physical profiles. Rules:
    ///
    /// * every count/capacity is positive, and nested limits are
    ///   consistent (warp ≤ block ≤ SM threads; block shared ≤ L1/shared
    ///   pool; L2 ≤ DRAM capacity);
    /// * bandwidths are finite, positive and not inverted
    ///   (DRAM ≤ L2 ≤ shared);
    /// * peaks are finite and positive, with FP64 ≤ FP32 and the tensor
    ///   peak at least the plain FP64 peak;
    /// * overheads are finite and non-negative; ramp and row-chunk are
    ///   positive;
    /// * every power/energy coefficient is finite and non-negative, and
    ///   the TDP exceeds the idle floor (constant + static base).
    ///
    /// # Errors
    ///
    /// [`ProfileError::Invalid`] naming the first violated rule.
    pub fn validate(&self) -> Result<(), ProfileError> {
        let a = &self.arch;
        let fail = |msg: String| Err(ProfileError::Invalid(msg));
        if a.name.is_empty() {
            return fail("name is empty".to_owned());
        }
        for (field, v) in [
            ("sm_count", a.sm_count),
            ("max_threads_per_block", a.max_threads_per_block),
            ("threads_per_warp", a.threads_per_warp),
            ("max_threads_per_sm", a.max_threads_per_sm),
            ("max_blocks_per_sm", a.max_blocks_per_sm),
            ("regs_per_sm", a.regs_per_sm),
            ("regs_per_thread", a.regs_per_thread),
        ] {
            if v == 0 {
                return fail(format!("{field} must be positive"));
            }
        }
        if a.threads_per_warp > a.max_threads_per_block {
            return fail("threads_per_warp exceeds max_threads_per_block".to_owned());
        }
        if a.max_threads_per_block > a.max_threads_per_sm {
            return fail("max_threads_per_block exceeds max_threads_per_sm".to_owned());
        }
        for (field, v) in [
            ("l1_shared_bytes", a.l1_shared_bytes),
            ("max_shared_per_block", a.max_shared_per_block),
            ("l2_bytes", a.l2_bytes),
            ("dram_bytes", a.dram_bytes),
        ] {
            if v == 0 {
                return fail(format!("{field} must be positive"));
            }
        }
        if a.max_shared_per_block > a.l1_shared_bytes {
            return fail("max_shared_per_block exceeds l1_shared_bytes".to_owned());
        }
        if a.l2_bytes > a.dram_bytes {
            return fail("l2_bytes exceeds dram_bytes".to_owned());
        }
        for (field, v) in [
            ("peak_fp32_gflops", a.peak_fp32_gflops),
            ("peak_fp64_gflops", a.peak_fp64_gflops),
            ("peak_fp64_tensor_gflops", a.peak_fp64_tensor_gflops),
            ("dram_bw_gbs", a.dram_bw_gbs),
            ("l2_bw_gbs", a.l2_bw_gbs),
            ("shared_bw_gbs", a.shared_bw_gbs),
            ("tdp_w", a.tdp_w),
            ("dram_row_chunk_bytes", a.dram_row_chunk_bytes),
            ("power_ramp_tau_s", a.power_ramp_tau_s),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return fail(format!("{field} must be finite and positive"));
            }
        }
        if a.peak_fp64_gflops > a.peak_fp32_gflops {
            return fail("peak_fp64_gflops exceeds peak_fp32_gflops".to_owned());
        }
        if a.peak_fp64_tensor_gflops < a.peak_fp64_gflops {
            return fail("peak_fp64_tensor_gflops below peak_fp64_gflops".to_owned());
        }
        if a.dram_bw_gbs > a.l2_bw_gbs {
            return fail("bandwidth inversion: dram_bw_gbs exceeds l2_bw_gbs".to_owned());
        }
        if a.l2_bw_gbs > a.shared_bw_gbs {
            return fail("bandwidth inversion: l2_bw_gbs exceeds shared_bw_gbs".to_owned());
        }
        for (field, v) in [
            ("launch_overhead_s", a.launch_overhead_s),
            ("barrier_overhead_s", a.barrier_overhead_s),
        ] {
            if !v.is_finite() || v < 0.0 {
                return fail(format!("{field} must be finite and non-negative"));
            }
        }
        for (field, v) in power_coefficients(&a.power) {
            if !v.is_finite() || v < 0.0 {
                return fail(format!("power.{field} must be finite and non-negative"));
            }
        }
        if a.tdp_w <= a.idle_power_w() {
            return fail(format!(
                "tdp_w ({}) does not exceed the idle floor ({})",
                a.tdp_w,
                a.idle_power_w()
            ));
        }
        Ok(())
    }
}

impl fmt::Display for DeviceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.arch.fmt(f)
    }
}

fn power_coefficients(p: &PowerCoefficients) -> [(&'static str, f64); 8] {
    [
        ("p_constant_w", p.p_constant_w),
        ("p_static_base_w", p.p_static_base_w),
        ("p_static_active_w", p.p_static_active_w),
        ("p_sm_dynamic_w", p.p_sm_dynamic_w),
        ("e_flop_j_per_gflop", p.e_flop_j_per_gflop),
        ("e_l2_j_per_gb", p.e_l2_j_per_gb),
        ("e_dram_j_per_gb", p.e_dram_j_per_gb),
        ("e_shared_j_per_gb", p.e_shared_j_per_gb),
    ]
}

fn power_fields(p: &PowerCoefficients) -> Vec<(&'static str, String)> {
    power_coefficients(p)
        .iter()
        .map(|(name, v)| (*name, json::number(*v)))
        .collect()
}

fn bad(field: &str, reason: &str) -> ProfileError {
    ProfileError::BadField {
        field: field.to_owned(),
        reason: reason.to_owned(),
    }
}

/// The field soup the parser produces before schema checking.
#[derive(Default)]
struct RawProfile {
    name: Option<String>,
    scalars: BTreeMap<String, f64>,
    power: BTreeMap<String, f64>,
}

impl RawProfile {
    fn into_profile(mut self) -> Result<DeviceProfile, ProfileError> {
        let name = self.name.take().ok_or(ProfileError::MissingField("name"))?;
        let arch = GpuArch {
            name,
            sm_count: self.take_u32("sm_count")?,
            max_threads_per_block: self.take_u32("max_threads_per_block")?,
            threads_per_warp: self.take_u32("threads_per_warp")?,
            max_threads_per_sm: self.take_u32("max_threads_per_sm")?,
            max_blocks_per_sm: self.take_u32("max_blocks_per_sm")?,
            regs_per_sm: self.take_u32("regs_per_sm")?,
            regs_per_thread: self.take_u32("regs_per_thread")?,
            l1_shared_bytes: self.take_u64("l1_shared_bytes")?,
            max_shared_per_block: self.take_u64("max_shared_per_block")?,
            l2_bytes: self.take_u64("l2_bytes")?,
            dram_bytes: self.take_u64("dram_bytes")?,
            peak_fp32_gflops: self.take_f64("peak_fp32_gflops")?,
            peak_fp64_gflops: self.take_f64("peak_fp64_gflops")?,
            peak_fp64_tensor_gflops: self.take_f64("peak_fp64_tensor_gflops")?,
            dram_bw_gbs: self.take_f64("dram_bw_gbs")?,
            l2_bw_gbs: self.take_f64("l2_bw_gbs")?,
            shared_bw_gbs: self.take_f64("shared_bw_gbs")?,
            tdp_w: self.take_f64("tdp_w")?,
            launch_overhead_s: self.take_f64("launch_overhead_s")?,
            barrier_overhead_s: self.take_f64("barrier_overhead_s")?,
            dram_row_chunk_bytes: self.take_f64("dram_row_chunk_bytes")?,
            power_ramp_tau_s: self.take_f64("power_ramp_tau_s")?,
            power: PowerCoefficients {
                p_constant_w: self.take_power("p_constant_w")?,
                p_static_base_w: self.take_power("p_static_base_w")?,
                p_static_active_w: self.take_power("p_static_active_w")?,
                p_sm_dynamic_w: self.take_power("p_sm_dynamic_w")?,
                e_flop_j_per_gflop: self.take_power("e_flop_j_per_gflop")?,
                e_l2_j_per_gb: self.take_power("e_l2_j_per_gb")?,
                e_dram_j_per_gb: self.take_power("e_dram_j_per_gb")?,
                e_shared_j_per_gb: self.take_power("e_shared_j_per_gb")?,
            },
        };
        if let Some(extra) = self.scalars.keys().next() {
            return Err(ProfileError::Parse(format!("unknown field `{extra}`")));
        }
        if let Some(extra) = self.power.keys().next() {
            return Err(ProfileError::Parse(format!(
                "unknown field `power.{extra}`"
            )));
        }
        Ok(DeviceProfile { arch })
    }

    fn take_f64(&mut self, field: &'static str) -> Result<f64, ProfileError> {
        self.scalars
            .remove(field)
            .ok_or(ProfileError::MissingField(field))
    }

    fn take_power(&mut self, field: &'static str) -> Result<f64, ProfileError> {
        self.power
            .remove(field)
            .ok_or(ProfileError::MissingField(field))
    }

    fn take_u32(&mut self, field: &'static str) -> Result<u32, ProfileError> {
        let v = self.take_f64(field)?;
        if v.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&v) {
            return Err(bad(field, "expected a non-negative 32-bit integer"));
        }
        Ok(v as u32)
    }

    fn take_u64(&mut self, field: &'static str) -> Result<u64, ProfileError> {
        let v = self.take_f64(field)?;
        // 2^53: beyond this, f64 cannot represent every integer and the
        // JSON round trip would silently quantize.
        if v.fract() != 0.0 || !(0.0..=9_007_199_254_740_992.0).contains(&v) {
            return Err(bad(field, "expected a non-negative integer below 2^53"));
        }
        Ok(v as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bit_identical(a: &GpuArch, b: &GpuArch) {
        assert_eq!(a.name, b.name);
        assert_eq!(
            (
                a.sm_count,
                a.max_threads_per_block,
                a.threads_per_warp,
                a.max_threads_per_sm,
                a.max_blocks_per_sm,
                a.regs_per_sm,
                a.regs_per_thread,
            ),
            (
                b.sm_count,
                b.max_threads_per_block,
                b.threads_per_warp,
                b.max_threads_per_sm,
                b.max_blocks_per_sm,
                b.regs_per_sm,
                b.regs_per_thread,
            )
        );
        assert_eq!(
            (
                a.l1_shared_bytes,
                a.max_shared_per_block,
                a.l2_bytes,
                a.dram_bytes
            ),
            (
                b.l1_shared_bytes,
                b.max_shared_per_block,
                b.l2_bytes,
                b.dram_bytes
            )
        );
        let floats = |x: &GpuArch| {
            let p = &x.power;
            [
                x.peak_fp32_gflops,
                x.peak_fp64_gflops,
                x.peak_fp64_tensor_gflops,
                x.dram_bw_gbs,
                x.l2_bw_gbs,
                x.shared_bw_gbs,
                x.tdp_w,
                x.launch_overhead_s,
                x.barrier_overhead_s,
                x.dram_row_chunk_bytes,
                x.power_ramp_tau_s,
                p.p_constant_w,
                p.p_static_base_w,
                p.p_static_active_w,
                p.p_sm_dynamic_w,
                p.e_flop_j_per_gflop,
                p.e_l2_j_per_gb,
                p.e_dram_j_per_gb,
                p.e_shared_j_per_gb,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(floats(a), floats(b));
    }

    #[test]
    fn every_builtin_validates() {
        let names = DeviceProfile::builtin_names();
        assert_eq!(names, vec!["ga100", "xavier", "h100", "orin", "nano"]);
        for name in names {
            let profile = DeviceProfile::builtin(name).unwrap();
            profile.validate().unwrap();
            assert!(!profile.arch().name.is_empty());
        }
        assert!(
            DeviceProfile::builtin("GA100").is_some(),
            "case-insensitive"
        );
        assert!(DeviceProfile::builtin("tpu").is_none());
    }

    #[test]
    fn committed_files_are_byte_identical_to_pretty_printer() {
        for (name, source) in BUILTIN_SOURCES {
            let profile = DeviceProfile::from_json(source).unwrap();
            assert_eq!(
                profile.to_json_pretty(),
                *source,
                "profiles/{name}.json drifted from the canonical pretty-printed form"
            );
        }
    }

    #[test]
    fn json_round_trip_is_bit_identical() {
        for name in DeviceProfile::builtin_names() {
            let profile = DeviceProfile::builtin(name).unwrap();
            let reparsed = DeviceProfile::from_json(&profile.to_json_pretty()).unwrap();
            assert_bit_identical(profile.arch(), reparsed.arch());
        }
    }

    #[test]
    fn ga100_profile_matches_legacy_constructor() {
        let legacy = crate::arch::legacy::ga100();
        let loaded = DeviceProfile::builtin("ga100").unwrap();
        assert_bit_identical(&legacy, loaded.arch());
        assert_bit_identical(&legacy, &GpuArch::ga100());
    }

    #[test]
    fn xavier_profile_matches_legacy_constructor() {
        let legacy = crate::arch::legacy::xavier();
        let loaded = DeviceProfile::builtin("xavier").unwrap();
        assert_bit_identical(&legacy, loaded.arch());
        assert_bit_identical(&legacy, &GpuArch::xavier());
    }

    #[test]
    fn validate_rejects_non_physical_profiles() {
        let base = DeviceProfile::builtin("ga100").unwrap();
        type Mutation = (&'static str, Box<dyn Fn(&mut GpuArch)>);
        let mutations: Vec<Mutation> = vec![
            ("zero SMs", Box::new(|a| a.sm_count = 0)),
            ("empty name", Box::new(|a| a.name.clear())),
            (
                "bandwidth inversion dram>l2",
                Box::new(|a| a.dram_bw_gbs = a.l2_bw_gbs * 2.0),
            ),
            (
                "bandwidth inversion l2>shared",
                Box::new(|a| a.l2_bw_gbs = a.shared_bw_gbs * 2.0),
            ),
            (
                "negative energy",
                Box::new(|a| a.power.e_dram_j_per_gb = -1.0e-3),
            ),
            (
                "nan coefficient",
                Box::new(|a| a.power.p_sm_dynamic_w = f64::NAN),
            ),
            ("tdp below idle", Box::new(|a| a.tdp_w = 10.0)),
            (
                "fp64 above fp32",
                Box::new(|a| a.peak_fp64_gflops = a.peak_fp32_gflops * 2.0),
            ),
            (
                "block shared above pool",
                Box::new(|a| a.max_shared_per_block = a.l1_shared_bytes + 1),
            ),
            ("l2 above dram", Box::new(|a| a.l2_bytes = a.dram_bytes + 1)),
            (
                "warp above block",
                Box::new(|a| a.threads_per_warp = a.max_threads_per_block + 1),
            ),
            ("zero ramp", Box::new(|a| a.power_ramp_tau_s = 0.0)),
            (
                "negative overhead",
                Box::new(|a| a.launch_overhead_s = -1.0e-6),
            ),
        ];
        for (what, mutate) in mutations {
            let mut arch = base.arch().clone();
            mutate(&mut arch);
            let profile = DeviceProfile::new(arch);
            assert!(
                matches!(profile.validate(), Err(ProfileError::Invalid(_))),
                "mutation `{what}` should invalidate the profile"
            );
        }
    }

    #[test]
    fn parser_rejects_schema_violations() {
        let good = DeviceProfile::builtin("xavier").unwrap().to_json_pretty();
        // Unknown field.
        let with_extra = good.replacen("\"sm_count\"", "\"smcount\"", 1);
        assert!(DeviceProfile::from_json(&with_extra).is_err());
        // Missing field (drop the name line entirely).
        let without_name: String = good.lines().filter(|l| !l.contains("\"name\"")).fold(
            String::new(),
            |mut acc, line| {
                acc.push_str(line);
                acc.push('\n');
                acc
            },
        );
        assert_eq!(
            DeviceProfile::from_json(&without_name),
            Err(ProfileError::MissingField("name"))
        );
        // Fractional integer field.
        let fractional = good.replacen("\"sm_count\": 8", "\"sm_count\": 8.5", 1);
        assert!(matches!(
            DeviceProfile::from_json(&fractional),
            Err(ProfileError::BadField { .. })
        ));
        // Type confusion.
        let stringy = good.replacen("\"tdp_w\": 30", "\"tdp_w\": \"30\"", 1);
        assert!(matches!(
            DeviceProfile::from_json(&stringy),
            Err(ProfileError::BadField { .. })
        ));
        // Not even JSON.
        assert!(matches!(
            DeviceProfile::from_json("{"),
            Err(ProfileError::Parse(_))
        ));
        // A field given twice: no order of the two decides the device.
        let repeated = good.replacen("\"tdp_w\": 30", "\"tdp_w\": 30, \"tdp_w\": 300", 1);
        assert_ne!(repeated, good);
        assert!(matches!(
            DeviceProfile::from_json(&repeated),
            Err(ProfileError::Parse(e)) if e.contains("repeated key \"tdp_w\"")
        ));
    }

    #[test]
    fn load_reads_and_validates_files() {
        let dir = std::env::temp_dir().join("eatss_profile_load_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.json");
        std::fs::write(
            &path,
            DeviceProfile::builtin("orin").unwrap().to_json_pretty(),
        )
        .unwrap();
        let loaded = DeviceProfile::load(&path).unwrap();
        assert_eq!(loaded.arch().name, "Orin");
        // A parseable but non-physical profile is rejected by load().
        let broken = path.with_file_name("broken.json");
        let text = DeviceProfile::builtin("orin")
            .unwrap()
            .to_json_pretty()
            .replacen("\"sm_count\": 16", "\"sm_count\": 0", 1);
        std::fs::write(&broken, text).unwrap();
        assert!(matches!(
            DeviceProfile::load(&broken),
            Err(ProfileError::Invalid(_))
        ));
        assert!(matches!(
            DeviceProfile::load(dir.join("absent.json")),
            Err(ProfileError::Io(_))
        ));
        // JSON is the only format: anything else is a typed parse error.
        let toml = path.with_file_name("dev.toml");
        std::fs::write(&toml, "name = \"Orin\"\nsm_count = 16\n").unwrap();
        assert!(matches!(
            DeviceProfile::load(&toml),
            Err(ProfileError::Parse(_))
        ));
        // `resolve` takes a builtin name first, then an existing file
        // (whose load errors it passes on), and otherwise names the
        // builtins.
        assert_eq!(
            DeviceProfile::resolve("ORIN").ok(),
            DeviceProfile::builtin("orin")
        );
        assert_eq!(DeviceProfile::resolve(path.to_str().unwrap()), Ok(loaded));
        assert!(matches!(
            DeviceProfile::resolve(broken.to_str().unwrap()),
            Err(ProfileError::Invalid(_))
        ));
        let absent = dir.join("absent.json");
        let unknown = DeviceProfile::resolve(absent.to_str().unwrap()).unwrap_err();
        assert!(matches!(unknown, ProfileError::UnknownDevice(_)));
        assert!(unknown
            .to_string()
            .contains(r#"["ga100", "xavier", "h100", "orin", "nano"]"#));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
