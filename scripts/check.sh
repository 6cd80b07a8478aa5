#!/usr/bin/env bash
# Repo gate: formatting, lints, tests. Run from anywhere; exits non-zero on
# the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy, every target (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace) =="
test_log="$(mktemp)"
trap 'rm -f "$test_log"' EXIT
cargo test -q --workspace 2>&1 | tee "$test_log"
awk '/^test result:/ { passed += $4; suites += 1 }
     END { printf "test summary: %d tests passed across %d suites\n", passed, suites }' \
    "$test_log"

echo "== E4 smoke (4 connect workers, direct and wire transport, digest vs sequential) =="
cargo run -q -p kg-bench --bin exp_pipeline --release -- --smoke

echo "== E13 smoke (incremental publish digest vs full rebuild) =="
cargo run -q -p kg-bench --bin exp_publish --release -- --smoke

echo "== E14 smoke (standing queries vs full-rescan oracle) =="
cargo run -q -p kg-bench --bin exp_subscribe --release -- --smoke

echo "== E15 smoke (segment checkpoint + recovery digest parity) =="
cargo run -q -p kg-bench --bin exp_persist --release -- --smoke

echo "== E16 smoke (open-loop load, 2 shards, per-request merge equality) =="
cargo run -q -p kg-bench --bin exp_load --release -- --smoke

echo "== E17 smoke (compiled plans byte-identical to the interpreter) =="
cargo run -q -p kg-bench --bin exp_plan --release -- --smoke

echo "== E18 smoke (binary vs JSON payload decode digest parity) =="
cargo run -q -p kg-bench --bin exp_recover_decode --release -- --smoke

echo "== e2e smoke (bulk_ingest, 1 s, the benchmark's own oracle) =="
e2e_result="$(python3 e2ebench/run.py --workload bulk_ingest --seed 1 --seconds 1 --trace 0 | tail -n 1)"
echo "$e2e_result"
if ! grep -q '"correct":true' <<<"$e2e_result" || ! grep -Eq '"failed":0[,}]' <<<"$e2e_result"; then
    echo "e2e smoke: bulk_ingest must report correct:true with 0 failed operations" >&2
    exit 1
fi

echo "== e2e smoke (restart_serve, 1 s, the benchmark's own oracle) =="
e2e_result="$(python3 e2ebench/run.py --workload restart_serve --seed 1 --seconds 1 --trace 0 | tail -n 1)"
echo "$e2e_result"
if ! grep -q '"correct":true' <<<"$e2e_result" || ! grep -Eq '"failed":0[,}]' <<<"$e2e_result"; then
    echo "e2e smoke: restart_serve must report correct:true with 0 failed operations" >&2
    exit 1
fi

echo "== e2e smoke (live_serve, 1 s, the benchmark's own oracle) =="
# Runs the product writer's EpochBuilder freeze against the benchmark's
# oracles: deliveries vs rescan_matches, sampled answers vs the pinned epoch
# and the final epoch vs a rebuild. Only correctness gates: the failed count
# also includes ticks where the 50 ms writer fell behind, which is a
# property of the host (it trips on 2-vCPU machines), so it is printed, not
# gated.
e2e_result="$(python3 e2ebench/run.py --workload live_serve --seed 1 --seconds 1 --trace 0 | tail -n 1)"
echo "$e2e_result"
echo "live_serve failed operations: $(grep -Eo '"failed":[0-9]+' <<<"$e2e_result" | cut -d: -f2)"
if ! grep -q '"correct":true' <<<"$e2e_result"; then
    echo "e2e smoke: live_serve must report correct:true" >&2
    exit 1
fi

echo "== serving stress (elevated readers) =="
SERVE_STRESS_READERS=8 cargo test -q --test serving

echo "== chaos harness (bounded) =="
scripts/chaos.sh

echo "all checks passed"
