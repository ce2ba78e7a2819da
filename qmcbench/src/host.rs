//! The configuration that actually ran: host, toolchain and run settings.

use crate::probe;
use crate::spec::{WorkloadDef, BACKEND, CODE, SETUP_REPS, SYSTEM_SEED, THREADS};
use qmc_instrument::json::JsonWriter;

/// Target features this binary was compiled with, from a fixed list.
pub fn target_features() -> Vec<&'static str> {
    let mut v = Vec::new();
    macro_rules! feature {
        ($($f:tt),*) => {
            $(if cfg!(target_feature = $f) { v.push($f); })*
        };
    }
    feature!("sse4.2", "avx", "avx2", "fma", "avx512f", "avx512bw", "avx512vl", "avx512dq", "neon");
    v
}

/// CPU model from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of this process, bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// Writes the configuration object's members into `w` (an open object).
pub fn write_config(w: &mut JsonWriter, def: &WorkloadDef, seed: u64, trace: bool) {
    w.key("workload").str_val(def.name);
    w.key("benchmark").str_val(def.benchmark.spec().name);
    w.key("size").str_val(&format!("{:?}", def.size));
    w.key("code").str_val(&CODE.label());
    w.key("kernel_backend").str_val(BACKEND.label());
    w.key("threads").u64_val(THREADS as u64);
    w.key("walkers").u64_val(def.walkers as u64);
    w.key("crowd_size").u64_val(def.crowd.unwrap_or(0) as u64);
    w.key("steps").u64_val(def.steps as u64);
    w.key("warmup").u64_val(def.warmup as u64);
    w.key("tau").f64_val(def.tau);
    w.key("seed").u64_val(seed);
    w.key("system_seed").u64_val(SYSTEM_SEED);
    w.key("setup_reps").begin_arr();
    w.u64_val(SETUP_REPS.0 as u64)
        .u64_val(SETUP_REPS.1 as u64)
        .f64_val(SETUP_REPS.2);
    w.end_arr();
    w.key("traced").bool_val(trace);
    w.key("sanitizer_enabled")
        .bool_val(qmc_instrument::sanitizer_enabled());
    w.key("cpu_model").str_val(&cpu_model());
    w.key("cores")
        .u64_val(std::thread::available_parallelism().map_or(0, |n| n.get() as u64));
    w.key("llc_bytes").u64_val(probe::llc_bytes().unwrap_or(0));
    w.key("target_features").begin_arr();
    for f in target_features() {
        w.str_val(f);
    }
    w.end_arr();
    w.key("rustc").str_val(env!("QMCBENCH_RUSTC"));
}
