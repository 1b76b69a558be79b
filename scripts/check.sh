#!/usr/bin/env bash
# Full local gate: formatting, lints, and the whole test suite.
# Offline-safe — never touches the network (run `cargo fetch` once if the
# local registry cache is cold).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy (dht/core/reputation non-test code: no unwrap) =="
# hot paths that must heal around faults instead of panicking, and the
# WAL, checkpoint, frame and codec decoders of untrusted bytes
cargo clippy -p collusion-dht -p collusion-core -p collusion-reputation -- -D warnings -W clippy::unwrap_used

echo "== cargo doc (workspace, rustdoc warnings are errors) =="
# a doc link left pointing at a deleted or private name fails here
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test (workspace) =="
cargo test --workspace -q

echo "== parallel-close identity matrix (RAYON_NUM_THREADS ∈ {1, 4}) =="
# close_threads=0 resolves through RAYON_NUM_THREADS, so this forces the
# auto path through both the serial oracle and a genuinely forked width of
# the close's two forks, both in its `advance` stage (the per-shard merge
# and the high-flag recompute); the properties assert bit-identical
# reports, state and persisted images
for w in 1 4; do
  RAYON_NUM_THREADS="$w" cargo test --release -q --test scale_props
done

echo "== fault matrix (drop ∈ {0, 0.1, 0.3}) =="
cargo test --release --test fault_tolerance -q

echo "== in-process robustness grid (the committed BENCH_robustness.json \"grid\", row for row) =="
# the nine drop×churn sweep points at n=200 through DecentralizedSystem;
# ≈ 25 s in a debug build, so the test is #[ignore]d and runs here
cargo test --release -q -p collusion-bench -- --ignored

echo "== crash matrix (every kill-point, fixed seed, bit-identical recovery) =="
cargo test --release -q -p collusion-sim crash -- --nocapture

echo "== durability props ×3 (the background checkpoint writer is a thread: loop it) =="
for i in 1 2 3; do
  cargo test --release -q --test durability_props
done

echo "== paper figures (reproduce fig8 … fig13 --csv, byte-identical) =="
# the simulator detects through the same snapshot builds and apply_epoch
# closes as every other path; the CSVs are deterministic, so any byte of difference is a change
# in behaviour, not noise. Regenerate the expected files (same command,
# `--csv scripts/figures_expected`) only in a change meant to move a figure.
figs_out="$(mktemp -d)"
trap 'rm -rf "$figs_out"' EXIT
timeout 300 cargo run --release -q -p collusion-bench --bin reproduce -- \
  fig8 fig9 fig10 fig11 fig12 fig13 --csv "$figs_out" > /dev/null
diff -r scripts/figures_expected "$figs_out"

echo "== examples (every examples/*.rs in release; each asserts its own result) =="
# ≈ 1 s together once built; an example's assert! fails the gate here
for ex in examples/*.rs; do
  timeout 120 cargo run --release -q --example "$(basename "$ex" .rs)" > /dev/null
done

echo "== nemesis smoke (crash + partition + overload against live resumable streams) =="
# composed fault schedules against a 3-manager cluster ingesting through
# resumable exactly-once stream sessions: detector-gated kills, an
# ack-direction partition, and a shrunk intake watermark. The test itself
# asserts zero acked-rating loss, zero duplicates, and suspect-set
# equality with the centralised baseline (the strict optimized detector
# over one snapshot of the offered ratings); the diff pins the
# deterministic projection (counts and invariant flags — rates stay
# unpinned).
nemesis_out="$(mktemp)"
trap 'rm -rf "$figs_out" "$nemesis_out"' EXIT
timeout 240 cargo test --release -q -p collusion-sim --test net_cluster nemesis_smoke_gate \
  -- --nocapture > "$nemesis_out"
diff scripts/BENCH_nemesis_smoke_expected.txt <(grep '^NEMESIS ' "$nemesis_out")

echo "== benchmark smoke (all four workloads at n=2k, every correctness gate) =="
# the benchmark package's own gates: planted pairs == reported set on
# every workload, acked == offered == Σ Status.recorded and a respawned
# manager holding what it held on wire-mixed, exact counts equal across
# reps. ~14 s; figures at this size are not compared with anything.
timeout 300 bash benchmark/run.sh --smoke | tail -n 1

echo "== benchmark unit tests (BENCHMARK.json == spec.rs, stats, JSON, compare) =="
# the benchmark is a package of its own, so `cargo test --workspace` never
# sees its tests; shares the smoke run's build. < 1 s warm, offline.
cargo test --release -q --manifest-path benchmark/Cargo.toml --target-dir target

echo "== line count (non-vendored, non-benchmark Rust; reported, not gated) =="
git ls-files '*.rs' | grep -v '^vendor/\|^benchmark/' | xargs wc -l | tail -1

echo "All checks passed."
