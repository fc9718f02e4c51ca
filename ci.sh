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

# The bench gate needs a release binary: debug builds are ~10x slower and
# `cargo run --release -q` would silently rebuild half the workspace with
# no indication of why CI stalled. Build once, loudly, then invoke it.
echo "== cargo build --release -p elink-bench"
cargo build --release -q -p elink-bench

# Every gate runs twice and must reproduce its committed BENCH_<gate>.json
# byte for byte; elink-bench prints the first differing line on a mismatch.
echo "== elink-bench --check (every bench gate against its committed contract)"
target/release/elink-bench --check

# perfbench/ is a standalone package outside the workspace: nothing above
# builds it, so this is what checks that it still compiles against the
# public API of the crates it measures.
echo "== perfbench tests (reduced-size smoke of every benchmark workload)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "ci.sh: all green"
