//! Records the compiler and profile the benchmark was built with, for the
//! environment block of every result.

use std::env;
use std::process::Command;

fn main() {
    let rustc = env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    let var = |name: &str| env::var(name).unwrap_or_default();
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    println!(
        "cargo:rustc-env=BENCH_PROFILE={} opt-level={} debug={} rustflags=[{}]",
        var("PROFILE"),
        var("OPT_LEVEL"),
        var("DEBUG"),
        var("CARGO_ENCODED_RUSTFLAGS").replace('\u{1f}', " "),
    );
    println!("cargo:rerun-if-changed=build.rs");
}
