//! The `bench_compare` gate keeps matching `Ref` runs against snapshots
//! that labelled them with the global backend (`soa`) instead of the
//! `reference` kernels they ran on.

use std::process::Command;

#[test]
fn ref_run_labelled_reference_is_gated_against_a_legacy_soa_baseline() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let prev = format!("{dir}/bench_compare_prev.json");
    let new = format!("{dir}/bench_compare_new.json");
    let snapshot = |backend: &str, seconds: f64| {
        format!(
            r#"{{"schema":"qmc-bench-snapshot/2","runs":[{{"code":"Ref","batching":"per-walker","kernel_backend":"{backend}","kernels":{{"J2":{seconds}}}}}]}}"#
        )
    };
    std::fs::write(&prev, snapshot("soa", 1.0)).unwrap();

    std::fs::write(&new, snapshot("reference", 1.05)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .args([&prev, &new])
        .env_remove("QMC_BENCH_TOLERANCE_PCT")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("Ref/per-walker/reference: kernel time"),
        "{stdout}"
    );

    // The matched run is really gated: a 2x slower Ref run fails.
    std::fs::write(&new, snapshot("reference", 2.0)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_compare"))
        .args([&prev, &new])
        .env_remove("QMC_BENCH_TOLERANCE_PCT")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}
