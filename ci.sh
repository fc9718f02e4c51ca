#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full workspace test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== simlint (determinism & protocol-purity invariants)"
cargo run -q -p simlint -- check

echo "== cargo doc (deny warnings + broken intra-doc links)"
RUSTDOCFLAGS="-D warnings -D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --quiet

echo "== cargo test"
cargo test -q --workspace

# The --check smokes below need release binaries: debug builds are ~10x
# slower and `cargo run --release -q` would silently rebuild half the
# workspace with no indication of why CI stalled. Build once, loudly, then
# invoke the produced binaries directly — and fail with a pointed message
# if one is missing rather than letting cargo's bin resolution guess.
echo "== cargo build --release -p elink-bench (bench bins for the --check smokes)"
cargo build --release -q -p elink-bench

run_bench_bin() {
  local bin="$1"
  shift
  if [[ ! -x "target/release/$bin" ]]; then
    echo "ci.sh: target/release/$bin not found — the bench bins must be built before the --check smokes." >&2
    echo "       Build it with: cargo build --release -p elink-bench --bin $bin" >&2
    exit 1
  fi
  "target/release/$bin" "$@"
}

# The committed BENCH_*.json files are the behavioural contract: a fresh run
# must reproduce them byte for byte once the wall-clock fields are stripped.
strip_wall_clock() {
  sed -E 's/"(wall_ms[a-z_]*|speedup)":[0-9.]+//g' "$1"
}

check_contract() {
  local committed="$1" fresh="$2"
  if ! diff <(strip_wall_clock "$committed") <(strip_wall_clock "$fresh") >/dev/null; then
    echo "ci.sh: $fresh no longer matches the committed $committed (wall-clock fields ignored):" >&2
    diff <(strip_wall_clock "$committed") <(strip_wall_clock "$fresh") | head -20 >&2
    echo "       Explain every changed number and regenerate $committed, or fix the regression." >&2
    exit 1
  fi
  echo "   $committed matches the committed contract"
}

echo "== bench_report --check (deterministic bench harness smoke)"
run_bench_bin bench_report --check --out target/BENCH_elink.json

echo "== workload_report --check (serving-layer SLO smoke)"
run_bench_bin workload_report --check --out target/BENCH_workload.json

echo "== chaos_report --check (fault-campaign soundness + determinism smoke)"
run_bench_bin chaos_report --check --out target/BENCH_chaos.json
check_contract BENCH_chaos.json target/BENCH_chaos.json

echo "== contention_report --check (queueing-knee + flow-model determinism smoke)"
run_bench_bin contention_report --check --out target/BENCH_contention.json
check_contract BENCH_contention.json target/BENCH_contention.json

echo "== admission_report --check (load-admission A/B knee + determinism smoke)"
run_bench_bin admission_report --check --out target/BENCH_admission.json
check_contract BENCH_admission.json target/BENCH_admission.json

echo "== scale_report --check (scheduler-differential scaling smoke)"
run_bench_bin scale_report --check --out target/BENCH_scale.json
# --check runs only the quick 1k/4k set; the committed file holds every
# fleet size up to 64k, which the full run reproduces in about a second.
run_bench_bin scale_report --out target/BENCH_scale_full.json
check_contract BENCH_scale.json target/BENCH_scale_full.json

echo "== mc_report --check (exhaustive model-checking gate on the small-topology suite)"
run_bench_bin mc_report --check --out target/BENCH_mc.json
check_contract BENCH_mc.json target/BENCH_mc.json

echo "== sub_report --check (standing-query push-vs-requery smoke)"
run_bench_bin sub_report --check --out target/BENCH_sub.json
check_contract BENCH_sub.json target/BENCH_sub.json

# perfbench/ is a standalone package outside the workspace: nothing above
# builds it, so this is what checks that it still compiles against the
# public API of the crates it measures.
echo "== perfbench tests (reduced-size smoke of every benchmark workload)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "ci.sh: all green"
