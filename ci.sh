#!/usr/bin/env bash
# Full local CI gate: formatting, lints, release build, workspace tests
# and a smoke pass over the crowd kernel bench. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== qmclint (lexical + call-graph + effect + concurrency invariants, JSON gate) =="
cargo run --release -q -p qmclint -- --root . --json > QMCLINT.json
# Belt and braces: the exit code above already gates, but also refuse a
# report with any nonzero per-rule count, so a new diagnostic class can
# never slip through at nonzero volume. The by_rule object now includes
# the v3 effect rules and the v4 concurrency rules
# (shared-mutable-capture, parallel-reduction-order, rng-capture,
# schedule-coverage), so the same grep sweeps them to zero.
grep -q '"schema":"qmclint/3"' QMCLINT.json
grep -q '"diagnostics_total":0' QMCLINT.json
! grep -o '"by_rule":{[^}]*}' QMCLINT.json | grep -q ':[1-9]'
# The v4 pass must actually have run: the par inventory has to show a
# live spawn-site census (an all-zero inventory would mean the analyzer
# silently skipped the parallel model), and each concurrency rule must
# be present in by_rule at exactly zero.
grep -qE '"par":\{"spawn_sites":[1-9][0-9]*' QMCLINT.json
grep -qE '"parallel_fns":[1-9][0-9]*' QMCLINT.json
grep -qE '"det_reduce_calls":[1-9][0-9]*' QMCLINT.json
for rule in shared-mutable-capture parallel-reduction-order rng-capture schedule-coverage; do
    grep -q "\"${rule}\":0" QMCLINT.json || {
        echo "ci: concurrency rule '${rule}' missing from by_rule at zero" >&2
        exit 1
    }
done
# Structural check: the report must parse and carry the effects and par
# blocks (json_check accepts qmclint/1..3, rejects anything else).
cargo run --release -q -p miniqmc --bin json_check < QMCLINT.json
rm -f QMCLINT.json

echo "== build (release) =="
# --workspace matters: the repo root is itself a package, so a bare
# `cargo build` would build only it and later stages would run stale
# `target/release` binaries (miniqmc, json_check, ...).
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== sanitizer tests (checked feature) =="
cargo test -q -p qmc-drivers --features checked

echo "== qmcsched (deterministic schedule parity, VMC + DMC) =="
cargo run --release -q -p qmcsched > /dev/null

echo "== kernel backend verification (all backends, no silent skips) =="
# kernel_verify prints one `status=ok` line per backend it actually ran,
# carrying the full family list; a backend that is silently skipped
# (e.g. simd unavailable) or a family that quietly dropped out of the
# sweep (the f32 ladder, the mw-v fast path) fails the gate.
FAMILIES="bspline,bspline-mw-v,bspline-f32,distance,distance-f32,jastrow"
cargo run --release -q -p qmc-kernels --bin kernel_verify | tee KERNEL_VERIFY.log
for backend in reference soa simd; do
    grep -q "kernel-verify: backend=${backend} families=${FAMILIES} .*status=ok" KERNEL_VERIFY.log || {
        echo "ci: backend '${backend}' missing from kernel_verify output (silent skip?)" >&2
        exit 1
    }
done
rm -f KERNEL_VERIFY.log

echo "== kernel speedup gate (simd vs reference, B-spline family) =="
# The wide-SIMD tiling has to actually pay for itself: the in-binary
# micro-bench must show the Simd backend at >= 1.25x over Reference on
# all three B-spline entry points, or the tiling regressed.
cargo run --release -q -p qmc-kernels --bin kernel_verify -- --bench | tee KERNEL_BENCH.log
python3 - <<'EOF'
import re
line = next(l for l in open("KERNEL_BENCH.log")
            if l.startswith("kernel-bench:") and "speedup" in l)
nums = dict(re.findall(r"(\w+)=([0-9.]+)x", line))
for k in ("v", "vgh", "mw_vgl"):
    s = float(nums[k])
    assert s >= 1.25, f"simd speedup on {k} is {s:.2f}x < 1.25x"
    print(f"ci: simd-vs-reference {k} = {s:.2f}x (>= 1.25x)")
EOF
rm -f KERNEL_BENCH.log

echo "== checkpoint/resume parity smoke (kill at step/block 3, resume to 6) =="
# A run checkpointed at an interior generation (DMC) or block (VMC) and
# restarted from the file must end with the same per-walker FNV-1a
# population hash as the run that was never killed — for per-walker AND
# crowd batching, on two threads. The stream file must be valid NDJSON
# while we're at it.
CK_DIR=$(mktemp -d)
trap 'rm -rf "$CK_DIR"' EXIT
for batch_args in "" "--crowd 2" "--driver vmc" "--driver vmc --crowd 2"; do
    # VMC counts --steps in sweeps, four per block: 24/12 sweeps = 6/3 blocks.
    case "$batch_args" in
        *vmc*) full=24 cut=12 ;;
        *) full=6 cut=3 ;;
    esac
    # shellcheck disable=SC2086  # batch_args is deliberately word-split
    straight=$(./target/release/miniqmc --benchmark graphite --threads 2 \
        --walkers 4 --steps "$full" --warmup 1 --seed 11 $batch_args \
        | grep '^walker-hash')
    # shellcheck disable=SC2086
    ./target/release/miniqmc --benchmark graphite --threads 2 \
        --walkers 4 --steps "$cut" --warmup 1 --seed 11 $batch_args \
        --checkpoint "$CK_DIR/ck.qmc:3" --stream "$CK_DIR/run.ndjson" > /dev/null
    # shellcheck disable=SC2086
    resumed=$(./target/release/miniqmc --benchmark graphite --threads 2 \
        --walkers 4 --steps "$full" --warmup 1 --seed 11 $batch_args \
        --resume "$CK_DIR/ck.qmc" --stream "$CK_DIR/run.ndjson" \
        | grep '^walker-hash')
    if [ "$straight" != "$resumed" ]; then
        echo "ci: checkpoint/resume hash mismatch (${batch_args:-per-walker}):" >&2
        echo "ci:   straight: $straight" >&2
        echo "ci:   resumed:  $resumed" >&2
        exit 1
    fi
    echo "ci: ${batch_args:-per-walker} resume bitwise ($straight)"
    # Every stream line parses as JSON, and the resumed segment announced
    # where it picked up.
    python3 - "$CK_DIR/run.ndjson" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert any(r.get("event") == "checkpoint" for r in lines), "no checkpoint record"
assert any(r.get("resumed_from_step") == 3 for r in lines), "no resumed start record"
EOF
    rm -f "$CK_DIR/ck.qmc" "$CK_DIR/run.ndjson"
done
# A corrupt resume file must fail with a diagnostic, not a panic.
echo "garbage" > "$CK_DIR/bad.qmc"
if ./target/release/miniqmc --benchmark graphite --walkers 2 --steps 2 \
    --resume "$CK_DIR/bad.qmc" 2> "$CK_DIR/err.log"; then
    echo "ci: corrupt resume file was accepted" >&2
    exit 1
fi
grep -q "cannot resume" "$CK_DIR/err.log"
! grep -q "panicked" "$CK_DIR/err.log"

echo "== bench snapshot (target/bench_snapshot.json) =="
# Written under target/, never over a committed BENCH_pr*.json artifact.
cargo run --release -q -p qmc-bench --bin bench_snapshot -- \
    --threads 2 --walkers 4 --steps 4 --reps 2 > target/bench_snapshot.json
grep -q '"schema":"qmc-bench-snapshot/2"' target/bench_snapshot.json
# The crowd run must exercise the fused multi-walker spline kernel: a
# zero `Bspline-mw-vgl` column means the batched path silently fell back.
python3 - <<'EOF'
import json
doc = json.load(open("target/bench_snapshot.json"))
crowd = [r for r in doc["runs"] if r["batching"] == "crowd"]
assert crowd, "no crowd-batched run in the snapshot"
mw = crowd[0]["kernels"]["Bspline-mw-vgl"]
assert mw > 0.0, f"Bspline-mw-vgl is {mw}: the crowd run did not drive the batched kernel"
print(f"ci: crowd Bspline-mw-vgl = {mw:.4f}s (nonzero, batched path live)")
EOF

echo "== crowd-vs-per-walker throughput gate (batched distance tables) =="
# The regression this gates: before the batched mw_* table ops the crowd
# drive spent 1.45x the per-walker time in DistTable-AA and lost ~7% of
# total throughput. Gated on a *longer* snapshot than BENCH_pr9.json —
# the series snapshot's ~30ms runs jitter +-10%, which would make a
# per-backend ratio gate a coin flip, and its config must stay fixed for
# bench_compare comparability. At this length the ratio is stable
# within a few percent; 10% slack still catches the fixed regression.
./target/release/bench_snapshot --threads 2 --walkers 8 --steps 16 --reps 3 \
    > CROWD_GATE.json
python3 - <<'EOF'
import json
doc = json.load(open("CROWD_GATE.json"))
cur = [r for r in doc["runs"] if r["code"] == "Current"]
for backend in sorted({r["kernel_backend"] for r in cur}):
    pw = [r for r in cur if r["kernel_backend"] == backend and r["batching"] == "per-walker"]
    cw = [r for r in cur if r["kernel_backend"] == backend and r["batching"] == "crowd"]
    if not (pw and cw):
        continue
    tp_pw = pw[0]["throughput_samples_per_s"]
    tp_cw = cw[0]["throughput_samples_per_s"]
    assert tp_cw >= 0.90 * tp_pw, (
        f"crowd throughput regressed vs per-walker on {backend}: "
        f"{tp_cw:.2f} < {tp_pw:.2f} samples/s")
    print(f"ci: {backend} crowd {tp_cw:.2f} vs per-walker {tp_pw:.2f} samples/s (ok)")
EOF
rm -f CROWD_GATE.json

echo "== bench series gate (vs previous PR snapshot) =="
cargo run --release -q -p qmc-bench --bin bench_compare -- BENCH_pr9.json target/bench_snapshot.json

echo "== bench smoke (crowd kernels) =="
cargo bench -p qmc-bench --bench bench_crowd -- --test

echo "== bench smoke (backend kernel benches) =="
cargo bench -p qmc-bench --bench bench_kernels -- --test

echo "== bench smoke (determinant updates) =="
cargo bench -p qmc-bench --bench bench_determinant -- --test

echo "== run-report smoke (miniqmc --profile json) =="
./target/release/miniqmc --benchmark graphite --threads 1 --walkers 2 \
    --steps 4 --warmup 1 --profile json | ./target/release/json_check

echo "== run-report smoke (checked build: sanitizer live) =="
# Rebuild with the runtime invariant sanitizer compiled in; json_check
# exits nonzero if the report carries any sanitizer violations.
cargo build --release -q -p miniqmc --features checked
./target/release/miniqmc --benchmark graphite --threads 1 --walkers 2 \
    --steps 4 --warmup 1 --profile json | ./target/release/json_check

echo "CI OK"
