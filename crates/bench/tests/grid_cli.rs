//! The `grid` binary end to end: a configuration the simulator cannot
//! run is refused with a typed error before any cell starts.

use std::process::Command;

#[test]
fn a_directory_past_64_nodes_is_a_config_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_grid"))
        .args([
            "--protocols",
            "dir_classic",
            "--topologies",
            "torus:9x9",
            "--workloads",
            "barnes",
            "--scale",
            "0.001",
            "--seeds",
            "1",
        ])
        .output()
        .expect("grid runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("error: DirClassic tracks sharers in a 64-bit vector"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
