#!/usr/bin/env bash
# The benchmark's one command: build the benchmark package, then run it.
#
#   benchmark/run.sh                        all four workloads + traced runs
#   benchmark/run.sh --smoke                the same at 2 000 nodes, < 20 s
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --compare A.json B.json
#
# See benchmark/README.md. The build goes to $CARGO_TARGET_DIR, or to the
# repository's own target/ so that it shares the root build's artefacts.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/collusion-benchmark" "$@"
