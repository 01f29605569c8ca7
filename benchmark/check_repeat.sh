#!/usr/bin/env bash
# Two complete runs of the same code on seed 7 must agree within the
# benchmark's own bounds (simulated values, fingerprints and counts
# exactly); then one run on held-out seed 11 shows the suite is not tuned
# to its default seed. About fifteen minutes; results go to benchmark/out.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/rcbr-benchmark"
"$bin" repeat --seed 7
"$bin" all --seed 11 --out benchmark/out/heldout-seed11.json
"$bin" check benchmark/out/heldout-seed11.json
