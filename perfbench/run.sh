#!/usr/bin/env bash
# Builds `clb` and the benchmark from source, then runs one benchmark pass:
#
#   bash perfbench/run.sh --workload warm_hits --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target/ for clb and perfbench/target/ for the benchmark) and to
# stderr, so the result stays the last line of stdout.
set -euo pipefail

cargo build --release --offline --quiet --manifest-path Cargo.toml --bin clb >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

clb_dir="${CARGO_TARGET_DIR:-target}"
bench_dir="${CARGO_TARGET_DIR:-perfbench/target}"
exec "$bench_dir/release/perfbench" --clb "$clb_dir/release/clb" "$@"
