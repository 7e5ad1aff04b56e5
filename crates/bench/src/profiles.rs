//! Device lists for the experiments that take them (Figs. 7, 8 and 10):
//! each entry is either a builtin [`DeviceProfile`] name or a path to a
//! profile file. Without a list they run on their committed devices.

use crate::ExperimentError;
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

/// Resolves a device list (`--profiles ga100,nano`): blank entries are
/// skipped, and an unresolvable entry or an empty list is a usage error.
pub fn resolve<'a>(
    specs: impl IntoIterator<Item = &'a str>,
) -> Result<Vec<GpuArch>, ExperimentError> {
    let archs = specs
        .into_iter()
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|spec| {
            DeviceProfile::resolve(spec)
                .map(DeviceProfile::into_arch)
                .map_err(|e| ExperimentError::Usage(format!("--profiles {spec}: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if archs.is_empty() {
        return Err(ExperimentError::Usage(
            "--profiles needs at least one device".to_owned(),
        ));
    }
    Ok(archs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch(spec: &str) -> GpuArch {
        resolve([spec]).unwrap().remove(0)
    }

    #[test]
    fn resolve_accepts_builtins_case_insensitively() {
        assert_eq!(arch("GA100").name, "GA100");
        assert_eq!(arch("orin").name, arch("Orin").name);
    }

    #[test]
    fn dataset_heuristic_splits_datacenter_from_embedded() {
        assert_eq!(dataset_for(&arch("ga100")), Dataset::ExtraLarge);
        assert_eq!(dataset_for(&arch("h100")), Dataset::ExtraLarge);
        assert_eq!(dataset_for(&arch("nano")), Dataset::Standard);
    }

    #[test]
    fn device_lists_resolve_or_are_usage_errors() {
        assert_eq!(resolve("ga100, xavier".split(',')).unwrap().len(), 2);
        for (list, why) in [("tpu9", "tpu9"), (",", "at least one device")] {
            match resolve(list.split(',')) {
                Err(ExperimentError::Usage(e)) => assert!(e.contains(why), "{list}: {e}"),
                other => panic!("{list}: {other:?}"),
            }
        }
    }
}
