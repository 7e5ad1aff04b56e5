use std::process::Command;

/// Bakes the compiler version into the crate so run provenance
/// (`Provenance::collect`) can stamp trace headers without shelling out
/// for it at runtime.
fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=EATSS_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
