//! Device-portfolio argument handling shared by the figure binaries:
//! every sweep-style figure accepts `--profiles a,b,...` (or `--profile`
//! for the single-device ones) where each entry is either a builtin
//! [`DeviceProfile`] name or a path to a profile file, and nothing else.
//! Without arguments the binaries keep their historical hard-wired
//! device list, so default output is unchanged.

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

/// Parses a figure binary's whole argv: either nothing (`None` — the
/// caller keeps its default device list) or exactly `flag LIST` (e.g.
/// `--profiles ga100,nano`), a comma-separated device list. Anything
/// else — another argument, a missing value, an unresolvable entry — is
/// printed with the usage and exits with code 2, like the other
/// bad-usage paths in the bench bins.
pub fn from_args(args: &[String], flag: &str) -> Option<Vec<GpuArch>> {
    parse_args(args, flag).unwrap_or_else(|e| {
        eprintln!(
            "{e}\nusage: [{flag} LIST]   (comma-separated builtin profile names or profile files)"
        );
        std::process::exit(2);
    })
}

fn parse_args(args: &[String], flag: &str) -> Result<Option<Vec<GpuArch>>, String> {
    let list = match args {
        [] => return Ok(None),
        [first, ..] if first != flag => return Err(format!("unknown argument `{first}`")),
        [_] => return Err(format!("{flag} needs a value")),
        [_, list] => list,
        [_, _, extra, ..] => return Err(format!("unknown argument `{extra}`")),
    };
    let archs = list
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|spec| {
            DeviceProfile::resolve(spec)
                .map(DeviceProfile::into_arch)
                .map_err(|e| format!("{flag} {spec}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if archs.is_empty() {
        return Err(format!("{flag} needs at least one device"));
    }
    Ok(Some(archs))
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
        assert!(from_args(&[], "--profile").is_none());
        // A misspelt or value-less flag is not an absent one.
        let rejected = |args: &[&str], flag| {
            let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
            parse_args(&args, flag).unwrap_err()
        };
        for (args, why) in [
            (&["--profiles", "nano"][..], "unknown argument `--profiles`"),
            (&["--profile"], "--profile needs a value"),
            (&["--profile", "nano", "x"], "unknown argument `x`"),
            (&["--profile", "tpu9"], "tpu9"),
            (&["--profile", ","], "at least one device"),
        ] {
            let e = rejected(args, "--profile");
            assert!(e.contains(why), "{args:?}: {e}");
        }
    }
}
