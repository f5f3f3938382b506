#!/usr/bin/env bash
# Repo gate: perfbench's Python self-tests, formatting, lints, rustdoc
# warnings, a compile check of the perfbench harness, build, the full test
# suite, and the end-to-end smoke tests in smoke.sh. CI runs exactly this script (see .github/workflows/ci.yml);
# run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> perfbench self-tests (pure Python, no build)"
PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s perfbench -p 'test_*.py'

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo check perfbench/harness (a package outside the workspace)"
CARGO_TARGET_DIR=target/perfbench-harness cargo check --locked --offline \
    --manifest-path perfbench/harness/Cargo.toml

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> smoke tests"
./scripts/smoke.sh

echo "All checks passed."
