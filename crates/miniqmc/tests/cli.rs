//! End-to-end CLI tests for the `miniqmc` binary: bad-argument handling
//! (usage + nonzero exit instead of a panic backtrace) and the golden
//! `--profile json` / `--profile trace:PATH` report paths.

use qmc_instrument::{json, ALL_KERNELS};
use std::process::Command;

fn miniqmc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_miniqmc"))
}

/// Tiny graphite run on one thread: per-kernel scopes are non-nested leaf
/// timers, so with a single worker their times must sum to <= wall time.
fn tiny_args() -> [&'static str; 10] {
    [
        "--benchmark",
        "graphite",
        "--threads",
        "1",
        "--walkers",
        "2",
        "--steps",
        "4",
        "--warmup",
        "1",
    ]
}

#[test]
fn bad_benchmark_prints_usage_and_exits_nonzero() {
    let out = miniqmc()
        .args(["--benchmark", "no-such-material"])
        .output()
        .expect("spawn miniqmc");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark"), "{stderr}");
    // Usage must list the valid values.
    for valid in ["graphite", "be64", "nio32", "nio64"] {
        assert!(stderr.contains(valid), "usage missing '{valid}': {stderr}");
    }
    assert!(
        !stderr.contains("panicked"),
        "must not panic with a backtrace: {stderr}"
    );
}

#[test]
fn bad_code_version_prints_usage_and_exits_nonzero() {
    let out = miniqmc()
        .args(["--code", "turbo"])
        .output()
        .expect("spawn miniqmc");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown code version"), "{stderr}");
    for valid in ["ref", "refmp", "soa", "current"] {
        assert!(stderr.contains(valid), "usage missing '{valid}': {stderr}");
    }
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn bad_profile_mode_prints_usage_and_exits_nonzero() {
    let out = miniqmc()
        .args(["--profile", "xml"])
        .output()
        .expect("spawn miniqmc");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown profile mode"), "{stderr}");
}

#[test]
fn golden_json_report_covers_all_kernels_within_wall_time() {
    let out = miniqmc()
        .args(tiny_args())
        .args(["--profile", "json"])
        .output()
        .expect("spawn miniqmc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    let v = json::parse(&stdout).expect("stdout is one valid JSON document");

    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some(qmc_instrument::RUN_REPORT_SCHEMA)
    );
    assert_eq!(
        v.get("benchmark").and_then(|s| s.as_str()),
        Some("Graphite")
    );

    // Every kernel category is present, and per-kernel times sum to no
    // more than the total wall time (single-threaded leaf timers).
    let kernels = v.get("kernels").expect("kernels object");
    let mut kernel_sum = 0.0;
    for &k in &ALL_KERNELS {
        let s = kernels
            .get(k.label())
            .unwrap_or_else(|| panic!("kernel '{}' missing from report", k.label()));
        kernel_sum += s.get("seconds").unwrap().as_f64().expect("seconds");
    }
    let wall = v.get("seconds").unwrap().as_f64().expect("wall seconds");
    assert!(wall > 0.0);
    assert!(
        kernel_sum <= wall,
        "kernel sum {kernel_sum} exceeds wall {wall}"
    );
    assert!(kernel_sum > 0.0, "profile must not be empty");

    // Accept ratio and population trajectory round out the report.
    let acc = v.get("acceptance").unwrap().as_f64().unwrap();
    assert!(acc > 0.0 && acc <= 1.0);
    let pop = v.get("population").unwrap().as_arr().unwrap();
    assert_eq!(pop.len(), 4, "one population entry per step");
    assert!(v.get("e_trial_trace").unwrap().as_arr().unwrap().len() == 4);
    // Per-worker profiles: one group for the single thread.
    assert_eq!(v.get("crowd_kernels").unwrap().as_arr().unwrap().len(), 1);
}

#[test]
fn json_report_with_crowds_has_per_crowd_profiles() {
    let out = miniqmc()
        .args([
            "--benchmark",
            "graphite",
            "--threads",
            "2",
            "--walkers",
            "4",
            "--steps",
            "3",
            "--warmup",
            "1",
            "--crowd",
            "2",
            "--profile",
            "json",
        ])
        .output()
        .expect("spawn miniqmc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = json::parse(&String::from_utf8(out.stdout).unwrap()).expect("valid JSON");
    assert_eq!(v.get("crowd_size").unwrap().as_f64(), Some(2.0));
    let groups = v.get("crowd_kernels").unwrap().as_arr().unwrap();
    assert_eq!(groups.len(), 2, "one profile per crowd");
    // Each crowd did real work (SPO evaluations landed in its group).
    for g in groups {
        let calls = g
            .get("Bspline-vgh")
            .unwrap()
            .get("calls")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(calls > 0.0, "crowd profile recorded no SPO calls");
    }
}

#[test]
fn trace_mode_writes_chrome_trace_with_spans() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("miniqmc_trace_{}.json", std::process::id()));
    let path_arg = format!("trace:{}", path.display());
    let out = miniqmc()
        .args([
            "--benchmark",
            "graphite",
            "--threads",
            "2",
            "--walkers",
            "4",
            "--steps",
            "3",
            "--warmup",
            "1",
            "--crowd",
            "2",
            "--profile",
            &path_arg,
        ])
        .output()
        .expect("spawn miniqmc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let v = json::parse(&text).expect("trace is valid JSON");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .map(|e| e.get("name").unwrap().as_str().unwrap())
        .collect();
    assert!(!names.is_empty(), "trace has no spans");
    assert!(
        names.iter().any(|n| n.starts_with("crowd generation")),
        "per-crowd spans missing: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("block ")),
        "per-block spans missing: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("step ")),
        "driver step spans missing: {names:?}"
    );
    // Spans land on distinct lanes (tid = crowd index / driver lane).
    let mut tids: Vec<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .map(|e| e.get("tid").unwrap().as_f64().unwrap() as u64)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(tids.len() >= 2, "expected multiple lanes, got {tids:?}");
}

fn walker_hash_line(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .find(|l| l.starts_with("walker-hash"))
        .expect("walker-hash line in summary")
        .to_string()
}

/// The PR's headline property, end to end through the binary: a job
/// checkpointed at an interior generation and restarted from the file
/// finishes with the same per-walker FNV-1a population hash as the job
/// that was never killed.
#[test]
fn checkpoint_then_resume_matches_straight_run_hash() {
    let dir = std::env::temp_dir();
    let ck = dir.join(format!("miniqmc_ck_{}.qmc", std::process::id()));
    let ck_arg = format!("{}:3", ck.display());
    let common = [
        "--benchmark",
        "graphite",
        "--threads",
        "2",
        "--walkers",
        "4",
        "--warmup",
        "1",
        "--seed",
        "11",
    ];

    let straight = miniqmc()
        .args(common)
        .args(["--steps", "6"])
        .output()
        .expect("spawn miniqmc");
    assert!(straight.status.success());

    // "Killed" job: runs only to step 3, leaving its checkpoint behind.
    let killed = miniqmc()
        .args(common)
        .args(["--steps", "3", "--checkpoint", &ck_arg])
        .output()
        .expect("spawn miniqmc");
    assert!(killed.status.success());

    // Restart from the file and run to the same total step count.
    let resumed = miniqmc()
        .args(common)
        .args(["--steps", "6", "--resume", &ck.display().to_string()])
        .output()
        .expect("spawn miniqmc");
    let _ = std::fs::remove_file(&ck);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );

    let h_straight = walker_hash_line(&straight.stdout);
    let h_killed = walker_hash_line(&killed.stdout);
    let h_resumed = walker_hash_line(&resumed.stdout);
    assert_eq!(
        h_straight, h_resumed,
        "resumed run diverged from the straight run"
    );
    assert_ne!(
        h_straight, h_killed,
        "interior checkpoint must not equal the finished population (no-op trap)"
    );
}

/// `--stream` appends one NDJSON record per event: a start record with
/// the schema tag, one block record per generation (monotone steps), a
/// checkpoint record when the cadence fires, and an end record whose
/// walker_hash matches the summary line.
#[test]
fn stream_is_valid_ndjson_with_per_block_records() {
    let dir = std::env::temp_dir();
    let ck = dir.join(format!("miniqmc_stream_ck_{}.qmc", std::process::id()));
    let nd = dir.join(format!("miniqmc_stream_{}.ndjson", std::process::id()));
    let out = miniqmc()
        .args([
            "--benchmark",
            "graphite",
            "--threads",
            "2",
            "--walkers",
            "4",
            "--steps",
            "4",
            "--warmup",
            "1",
            "--seed",
            "11",
            "--checkpoint",
            &format!("{}:2", ck.display()),
            "--stream",
            &nd.display().to_string(),
        ])
        .output()
        .expect("spawn miniqmc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&nd).expect("stream written");
    let _ = std::fs::remove_file(&nd);
    let _ = std::fs::remove_file(&ck);

    let records: Vec<_> = text
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("bad NDJSON line: {e}: {l}")))
        .collect();
    let kind = |r: &json::JsonValue| r.get("event").unwrap().as_str().unwrap().to_string();

    assert_eq!(kind(&records[0]), "start");
    assert_eq!(
        records[0].get("schema").and_then(|s| s.as_str()),
        Some("qmc-run-report-stream/1")
    );
    assert_eq!(kind(records.last().unwrap()), "end");

    let steps: Vec<u64> = records
        .iter()
        .filter(|r| kind(r) == "block")
        .map(|r| r.get("step").unwrap().as_f64().unwrap() as u64)
        .collect();
    assert_eq!(steps, vec![1, 2, 3, 4], "one block record per generation");

    let checkpoints: Vec<u64> = records
        .iter()
        .filter(|r| kind(r) == "checkpoint")
        .map(|r| r.get("step").unwrap().as_f64().unwrap() as u64)
        .collect();
    assert_eq!(checkpoints, vec![2, 4], "cadence :2 fires at steps 2 and 4");

    // End-record hash agrees with the summary line.
    let end_hash = records
        .last()
        .unwrap()
        .get("walker_hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(
        walker_hash_line(&out.stdout).contains(&end_hash),
        "stream end hash {end_hash} not in summary"
    );
}

/// A corrupt (or plain-text) file handed to `--resume` must produce a
/// one-line diagnostic and exit code 1 — never a panic backtrace.
#[test]
fn corrupt_resume_file_fails_cleanly() {
    let dir = std::env::temp_dir();
    let bad = dir.join(format!("miniqmc_bad_ck_{}.qmc", std::process::id()));
    std::fs::write(&bad, b"this is not a checkpoint at all").expect("write corrupt file");
    let out = miniqmc()
        .args(["--benchmark", "graphite", "--walkers", "2", "--steps", "2"])
        .args(["--resume", &bad.display().to_string()])
        .output()
        .expect("spawn miniqmc");
    let _ = std::fs::remove_file(&bad);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot resume"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn profiling_modes_do_not_change_results() {
    // Determinism guard: the same seeded run must produce bitwise
    // identical physics with profiling off (summary), json, and tracing.
    let summary = miniqmc().args(tiny_args()).output().expect("spawn miniqmc");
    let json_out = miniqmc()
        .args(tiny_args())
        .args(["--profile", "json"])
        .output()
        .expect("spawn miniqmc");
    let dir = std::env::temp_dir();
    let path = dir.join(format!("miniqmc_det_{}.json", std::process::id()));
    let trace_out = miniqmc()
        .args(tiny_args())
        .args(["--profile", &format!("trace:{}", path.display())])
        .output()
        .expect("spawn miniqmc");
    let _ = std::fs::remove_file(&path);
    assert!(summary.status.success());
    assert!(json_out.status.success());
    assert!(trace_out.status.success());

    let energy_line = |s: &str| -> String {
        s.lines()
            .find(|l| l.starts_with("energy"))
            .expect("energy line")
            .to_string()
    };
    let e_summary = energy_line(&String::from_utf8_lossy(&summary.stdout));
    let e_trace = energy_line(&String::from_utf8_lossy(&trace_out.stdout));
    assert_eq!(e_summary, e_trace, "tracing changed the physics");

    let v = json::parse(&String::from_utf8(json_out.stdout).unwrap()).unwrap();
    let mean = v
        .get("energy")
        .unwrap()
        .get("mean")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(
        e_summary.contains(&format!("{mean:.4}")),
        "json mean {mean} not consistent with summary: {e_summary}"
    );
}

/// `--driver vmc` runs on `--threads` engines (or as many crowds), gives
/// the same walkers as a single engine, and says how many ran.
#[test]
fn vmc_runs_on_the_requested_threads() {
    let nd =
        std::env::temp_dir().join(format!("miniqmc_vmc_threads_{}.ndjson", std::process::id()));
    let run = |threads: &str, extra: &[&str]| {
        let out = miniqmc()
            .args([
                "--driver",
                "vmc",
                "--benchmark",
                "graphite",
                "--walkers",
                "5",
            ])
            .args(["--steps", "8", "--seed", "3", "--threads", threads])
            .args(extra)
            .output()
            .expect("spawn miniqmc");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        walker_hash_line(&out.stdout)
    };
    let one = run("1", &[]);
    let three = run("3", &["--stream", &nd.display().to_string()]);
    assert_eq!(one, three, "VMC walkers depend on the thread count");
    assert_eq!(
        one,
        run("3", &["--crowd", "2"]),
        "crowds changed VMC walkers"
    );

    let text = std::fs::read_to_string(&nd).expect("stream written");
    let _ = std::fs::remove_file(&nd);
    let start = json::parse(text.lines().next().expect("start record")).unwrap();
    assert_eq!(start.get("event").and_then(|e| e.as_str()), Some("start"));
    assert_eq!(
        start.get("threads").and_then(json::JsonValue::as_f64),
        Some(3.0)
    );
}
