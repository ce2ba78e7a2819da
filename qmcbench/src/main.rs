//! `qmcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the configuration that ran, then, as the last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Writes the
//! same plus the per-run figures and (traced runs) every span to
//! `.bench_out/<workload>-seed<n>-trace<t>.json`. Exits 1 when any output
//! check failed, 2 on bad arguments.

use qmc_instrument::json::JsonWriter;
use qmcbench::run::{run, Options};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("qmcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = run(&opts);

    let mut metrics = JsonWriter::new();
    metrics.begin_obj();
    for m in &out.metrics.0 {
        metrics.key(&m.name).begin_obj();
        metrics.key("value").f64_val(m.value);
        metrics.key("unit").str_val(m.unit);
        metrics.end_obj();
    }
    metrics.end_obj();
    let metrics = metrics.finish();

    let dir = std::path::Path::new(".bench_out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        opts.def.name,
        opts.seed,
        u8::from(opts.trace)
    ));
    let body = format!(
        "{{\"config\":{},\"metrics\":{metrics},\"runs\":{},\"spans\":{}}}\n",
        out.config,
        out.runs,
        out.spans.as_deref().unwrap_or("[]")
    );
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, body)) {
        eprintln!("qmcbench: cannot write {}: {e}", file.display());
    }

    let c = &out.checks;
    println!("{{\"config\":{}}}", out.config);
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        c.correct(),
        c.attempted,
        c.failed
    );
    if c.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
