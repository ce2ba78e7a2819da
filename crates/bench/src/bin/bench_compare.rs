//! Per-PR benchmark series gate.
//!
//! ```text
//! bench_compare PREV.json NEW.json
//! ```
//!
//! Compares two `qmc-bench-snapshot/{1,2}` documents (the `BENCH_pr*.json`
//! artifacts successive PRs leave behind). Runs are matched by
//! `(code, batching, kernel_backend)` — schema 1 predates the `batching`
//! key and defaults to `per-walker`, and snapshots before the backend
//! sweep default to `soa` — and the gate is the **total kernel time**
//! summed over all matched runs: if the new total exceeds the previous one
//! by more than the tolerance, the tool exits 1 and CI fails. New
//! (unmatched) runs — e.g. the explicit-backend sweep the snapshot grew —
//! are reported but not gated until the next PR gives them a baseline.
//! `Ref`/`Ref+MP` runs are always keyed to the `reference` backend they
//! ran on, so snapshots that labelled them `soa` still gate them.
//!
//! The tolerance defaults to 15% and can be overridden for noisy CI hosts
//! via `QMC_BENCH_TOLERANCE_PCT` (e.g. `QMC_BENCH_TOLERANCE_PCT=50`).
//! A missing previous snapshot is not an error — the first PR in a series
//! has no baseline — but an unreadable or malformed one is (exit 2), so a
//! corrupt artifact cannot silently disarm the gate.

use qmc_instrument::json::{parse, JsonValue};

fn fail(msg: &str) -> ! {
    eprintln!("bench_compare: {msg}");
    std::process::exit(2);
}

/// Sums the per-kernel seconds of one run object.
fn kernel_total(run: &JsonValue) -> f64 {
    run.get("kernels")
        .and_then(JsonValue::as_obj)
        .map_or(0.0, |kernels| {
            kernels.iter().filter_map(|(_, v)| v.as_f64()).sum()
        })
}

/// Match key for a run: `code/batching/backend`, batching defaulting to
/// `per-walker` for schema-1 snapshots and the backend to `soa` for
/// snapshots that predate the explicit-backend sweep. The AoS codes
/// (`Ref`, `Ref+MP`) always ran on the reference kernels; older snapshots
/// labelled them with the global backend instead, so their key is
/// `reference` whatever label is stored.
fn run_key(run: &JsonValue) -> String {
    let code = run.get("code").and_then(JsonValue::as_str).unwrap_or("?");
    let batching = run
        .get("batching")
        .and_then(JsonValue::as_str)
        .unwrap_or("per-walker");
    let backend = if matches!(code, "Ref" | "Ref+MP") {
        "reference"
    } else {
        run.get("kernel_backend")
            .and_then(JsonValue::as_str)
            .unwrap_or("soa")
    };
    format!("{code}/{batching}/{backend}")
}

fn load_runs(path: &str) -> Vec<JsonValue> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc = parse(&text).unwrap_or_else(|e| fail(&format!("{path}: malformed JSON: {e}")));
    let schema = doc.get("schema").and_then(JsonValue::as_str).unwrap_or("");
    if !schema.starts_with("qmc-bench-snapshot/") {
        fail(&format!("{path}: unexpected schema '{schema}'"));
    }
    doc.get("runs")
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| fail(&format!("{path}: no runs array")))
        .to_vec()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, prev_path, new_path] = args.as_slice() else {
        fail("usage: bench_compare PREV.json NEW.json");
    };
    let tolerance_pct = std::env::var("QMC_BENCH_TOLERANCE_PCT")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(15.0);

    if !std::path::Path::new(prev_path).exists() {
        println!("bench_compare: no previous snapshot at {prev_path} — first PR in the series, nothing to gate");
        return;
    }
    let prev_runs = load_runs(prev_path);
    let new_runs = load_runs(new_path);

    let mut prev_total = 0.0f64;
    let mut new_total = 0.0f64;
    let mut matched = 0usize;
    for new_run in &new_runs {
        let key = run_key(new_run);
        let Some(prev_run) = prev_runs.iter().find(|r| run_key(r) == key) else {
            println!("bench_compare: {key}: new run, no baseline (skipped)");
            continue;
        };
        let (p, n) = (kernel_total(prev_run), kernel_total(new_run));
        prev_total += p;
        new_total += n;
        matched += 1;
        println!(
            "bench_compare: {key}: kernel time {p:.3}s -> {n:.3}s ({:+.1}%)",
            (n / p.max(1e-12) - 1.0) * 100.0
        );
    }
    if matched == 0 {
        fail("no runs matched between snapshots — the series is broken, not clean");
    }
    let ratio = new_total / prev_total.max(1e-12);
    let verdict_ok = ratio <= 1.0 + tolerance_pct / 100.0;
    println!(
        "bench_compare: total kernel time {prev_total:.3}s -> {new_total:.3}s ({:+.1}%), tolerance {tolerance_pct:.0}%: {}",
        (ratio - 1.0) * 100.0,
        if verdict_ok { "OK" } else { "REGRESSION" }
    );
    if !verdict_ok {
        eprintln!(
            "bench_compare: total kernel time regressed by more than {tolerance_pct:.0}% \
             (override with QMC_BENCH_TOLERANCE_PCT for noisy hosts)"
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(json: &str) -> String {
        run_key(&parse(json).unwrap())
    }

    #[test]
    fn legacy_ref_label_matches_the_reference_backend() {
        let legacy = key(r#"{"code":"Ref","batching":"per-walker","kernel_backend":"soa"}"#);
        let labelled =
            key(r#"{"code":"Ref","batching":"per-walker","kernel_backend":"reference"}"#);
        assert_eq!(legacy, "Ref/per-walker/reference");
        assert_eq!(legacy, labelled);
        assert_eq!(key(r#"{"code":"Ref+MP"}"#), "Ref+MP/per-walker/reference");
    }

    #[test]
    fn current_runs_keep_their_stored_backend() {
        assert_eq!(
            key(r#"{"code":"Current","batching":"crowd","kernel_backend":"simd"}"#),
            "Current/crowd/simd"
        );
        assert_eq!(key(r#"{"code":"Current"}"#), "Current/per-walker/soa");
    }
}
