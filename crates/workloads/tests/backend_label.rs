//! The run report names the kernel backend the run's engines were built
//! with, not whatever the process-wide selection says when the report is
//! written. Its own test binary, because it sets the process-wide backend.

use qmc_kernels::{set_backend, Backend};
use qmc_workloads::{run_dmc_benchmark, Benchmark, CodeVersion, RunConfig, Size, Workload};

#[test]
fn report_labels_the_backend_the_engines_ran() {
    set_backend(Backend::Simd);
    let w = Workload::new(Benchmark::Graphite, Size::Scaled, 3);
    let cfg = RunConfig {
        walkers: 1,
        steps: 2,
        warmup: 0,
        tau: 0.002,
        ..Default::default()
    };
    for (code, label) in [
        (CodeVersion::Ref, "reference"),
        (CodeVersion::RefMp, "reference"),
        (CodeVersion::Current, "simd"),
    ] {
        let out = run_dmc_benchmark(&w, code, &cfg);
        assert_eq!(out.kernel_backend.label(), label, "{}", out.label);
        assert_eq!(out.report(&w, &cfg).kernel_backend, label, "{}", out.label);
    }
}
