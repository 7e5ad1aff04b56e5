//! Device-portfolio argument handling shared by the figure binaries:
//! every sweep-style figure accepts `--profiles a,b,...` (or `--profile`
//! for the single-device ones) where each entry is either a builtin
//! [`DeviceProfile`] name or a path to a profile file. Without the flag
//! the binaries keep their historical hard-wired device list, so default
//! output is unchanged.

use eatss_gpusim::{DeviceProfile, GpuArch};
use eatss_kernels::Dataset;

/// The Fig 7 dataset pairing generalized to the fleet: datacenter-class
/// parts (≥ 32 SMs) run the EXTRALARGE sets, embedded parts STANDARD.
pub fn dataset_for(arch: &GpuArch) -> Dataset {
    if arch.sm_count >= 32 {
        Dataset::ExtraLarge
    } else {
        Dataset::Standard
    }
}

/// Parses `flag` (e.g. `"--profiles"`) as a comma-separated device list
/// from already-collected argv. Returns `None` when the flag is absent
/// (caller keeps its default device list); exits with code 2 on an
/// unresolvable entry, like the other bad-usage paths in the bench bins.
pub fn from_args(args: &[String], flag: &str) -> Option<Vec<GpuArch>> {
    let list = args
        .iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))?;
    let archs = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|spec| match DeviceProfile::resolve(spec) {
            Ok(profile) => profile.into_arch(),
            Err(e) => {
                eprintln!("{flag} {spec}: {e}");
                std::process::exit(2);
            }
        })
        .collect::<Vec<_>>();
    if archs.is_empty() {
        eprintln!("{flag} needs at least one device");
        std::process::exit(2);
    }
    Some(archs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(spec: &str) -> Result<GpuArch, String> {
        DeviceProfile::resolve(spec)
            .map(DeviceProfile::into_arch)
            .map_err(|e| e.to_string())
    }

    #[test]
    fn resolve_accepts_builtins_case_insensitively() {
        assert_eq!(resolve("GA100").unwrap().name, "GA100");
        assert_eq!(resolve("orin").unwrap().name, resolve("Orin").unwrap().name);
        assert!(resolve("tpu9").unwrap_err().contains("tpu9"));
    }

    #[test]
    fn dataset_heuristic_splits_datacenter_from_embedded() {
        assert_eq!(dataset_for(&resolve("ga100").unwrap()), Dataset::ExtraLarge);
        assert_eq!(dataset_for(&resolve("h100").unwrap()), Dataset::ExtraLarge);
        assert_eq!(dataset_for(&resolve("nano").unwrap()), Dataset::Standard);
    }

    #[test]
    fn from_args_parses_comma_lists_and_ignores_missing_flag() {
        let args = vec!["--profiles".to_owned(), "ga100, xavier".to_owned()];
        let archs = from_args(&args, "--profiles").unwrap();
        assert_eq!(archs.len(), 2);
        assert!(from_args(&args, "--profile").is_none());
    }
}
