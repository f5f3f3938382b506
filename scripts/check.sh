#!/usr/bin/env bash
# Repo gate: formatting, lints, rustdoc warnings, build, the full test
# suite, and the end-to-end smoke tests in smoke.sh. CI runs exactly this
# script (see .github/workflows/ci.yml); run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> smoke tests"
./scripts/smoke.sh

echo "All checks passed."
