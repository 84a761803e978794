#!/usr/bin/env bash
# The benchmark's single entry point. Builds the benchmark package
# (offline, release) and hands every argument to it:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--trace] [--quick]                     the whole suite
#   benchmark/run.sh --repeat-check | --emit-spec
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Share the repo's target directory unless the caller chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
# Build chatter goes to stderr: stdout's last line is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
case "$CARGO_TARGET_DIR" in
  /*) bin="$CARGO_TARGET_DIR/release/macs-benchmark" ;;
  *) bin="$PWD/$CARGO_TARGET_DIR/release/macs-benchmark" ;;
esac
exec "$bin" "$@"
