#!/usr/bin/env bash
# The local CI gate: the steps of the `test` and `noisebench` jobs in
# .github/workflows/ci.yml. The `test` job's paper-digest steps include
# the whole paper under `--fleet 2`; the `chaos` and `fleet` jobs (quick
# `repro` runs under injected faults, in process and in worker processes)
# are left to CI. Run from anywhere inside the repository.
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
# The whole paper's bits (tests/golden/repro_digests.txt): repro's stdout
# and every JSON report at the tiny budget (in process and under
# `--fleet 2`) and at the quick budget, on the native build and on one
# without AVX-512. A mismatch names each output that changed.
run cargo test -q --release -p ns-bench --test repro_digests -- --include-ignored
run env RUSTFLAGS="-C target-cpu=x86-64-v3" cargo test -q --release -p ns-bench --test repro_digests -- --include-ignored
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

# Determinism lint: exits 1 on any finding. Path exemptions in
# detlint.toml are the only way to sanction a hazard, and the tier-1 test
# every_exemption_is_load_bearing (run by `cargo test` above) fails on an
# exemption that absorbs no finding.
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
