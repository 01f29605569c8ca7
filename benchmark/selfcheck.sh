#!/usr/bin/env bash
# Build the benchmark offline, run every workload at a tenth of its size
# (results of a quick run are never recorded), and validate what it wrote
# against the metric tables and BENCHMARK.json. About a minute.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/rcbr-benchmark"
"$bin" all --quick --out benchmark/out/selfcheck-quick.json
"$bin" check benchmark/out/selfcheck-quick.json
