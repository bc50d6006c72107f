#!/usr/bin/env bash
# The local CI gate: the steps of the `test` and `noisebench` jobs in
# .github/workflows/ci.yml. The `chaos` and `fleet` jobs (quick `repro`
# runs under injected faults and in worker processes) are left to CI.
# Run from anywhere inside the repository.
set -euo pipefail

cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo build --workspace --release
# The cost group (Figures 7 and 8) end to end: it must write exactly its
# three reports; then the determinism_cost example, which runs the same
# profiler per convolution, must exit 0.
cost_out=$(mktemp -d)
run cargo run -q --release -p ns-bench --bin repro -- --exp cost --out "$cost_out" > "$cost_out/stdout.txt"
test "$(cd "$cost_out" && ls *.json | tr '\n' ' ')" = "fig7.json fig8a.json fig8b.json "
rm -rf "$cost_out"
run cargo run -q --release -p ns-examples --bin determinism_cost > /dev/null
run cargo test -q --workspace
# The tensor crate's bit-identity tests at opt-level 3, as shipped.
run cargo test -q --release -p nstensor
# The same tests on a build without AVX-512, where the portable tile
# kernels (crates/tensor/src/tile/portable.rs) are the shipped path rather
# than only the oracle of the 512-bit ones.
run env RUSTFLAGS="-C target-cpu=x86-64-v3" cargo test -q --release -p nstensor
# The golden weights, the one pin on the CPU device's reductions, at the
# opt-level `repro` ships.
run cargo test -q --release -p ns-integration --test golden_control
# The extension group end to end at the quick budget: it must write
# exactly its two reports.
ext_out=$(mktemp -d)
run env NS_QUICK=1 cargo run -q --release -p ns-bench --bin repro -- --exp ext --out "$ext_out" > "$ext_out/stdout.txt"
test "$(cd "$ext_out" && ls *.json | tr '\n' ' ')" = "ext_algo_sources.json ext_lanes.json "
rm -rf "$ext_out"
run cargo clippy --workspace --all-targets -- -D warnings
# The explicit AVX-512 tile kernels are compiled only for targets with
# AVX-512 F and DQ; this lints them on any x86-64 host, without running them.
run env RUSTFLAGS="-C target-cpu=x86-64-v4" cargo clippy -p nstensor --all-targets -- -D warnings
run cargo fmt --check
# Docs build warning-free: an intra-doc link to a deleted or private item
# is an error.
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Determinism lint: a stale allow is a hard failure (DL009). The fleet
# clock shim's DL003 allow is the one sanctioned suppression and survives
# the audit because it is load-bearing.
run cargo run --release -p detlint

# The benchmark (crates/bench/noisebench) is a cargo workspace of its own,
# so none of the steps above builds it. Its self-tests, then one short run
# of each workload at seed 1: a run exits 1 when its result digest differs
# from the pinned seed-1 golden digest, the one full-scale bit-identity
# check of the Permuted path.
run cargo test -q --release --manifest-path crates/bench/noisebench/Cargo.toml
for workload in impl_noise det_control fleet_resume; do
    run cargo run -q --release --manifest-path crates/bench/noisebench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0
done
# Traced runs: the replay wraps every layer, so it computes the first
# layer's input gradient that training skips, and a run exits 1 unless
# the replay's digest equals the untraced one. fleet_resume is the one
# workload with BatchNorm and worker processes.
for workload in det_control impl_noise fleet_resume; do
    run cargo run -q --release --manifest-path crates/bench/noisebench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1
done

echo "All checks passed."
