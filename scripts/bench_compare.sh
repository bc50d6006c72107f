#!/usr/bin/env bash
# Compare a fresh `cargo bench -p ns-bench --bench hotpath` run against the
# committed reference numbers in BENCH_9.json (the whole hot-path suite,
# measured after the closed-form Permuted plan and two-pass combine; it
# carries BENCH_7.json's cases forward).
#
# Usage:
#   scripts/bench_compare.sh            # run benches, compare, warn on drift
#   scripts/bench_compare.sh --update   # run benches, rewrite post_pr_ns/speedup
#   scripts/bench_compare.sh --from FILE  # compare a saved bench log instead
#
# The gate is WARN-ONLY: wall-clock on shared machines is far too noisy to
# fail CI on, and the determinism guarantees are covered by the test suite,
# not by timing. Exit status is always 0 unless the bench run itself fails
# or the log parses to zero benches.
set -euo pipefail

cd "$(dirname "$0")/.."

REF=BENCH_9.json
TOLERANCE=${BENCH_TOLERANCE:-1.75} # warn when slower than ref by this factor
# The fault-tolerance layer (chaos hooks, checkpoint plumbing) must be
# zero-cost when disarmed: `begin_step`/`take_fault` are a null check and
# FitOptions::default() wires no sink. The train_step hot path therefore
# gets a tighter drift tolerance than the general wall-clock noise budget.
HOT_TOLERANCE=${BENCH_HOT_TOLERANCE:-1.40}
UPDATE=0
FROM=""

while [[ $# -gt 0 ]]; do
    case "$1" in
    --update) UPDATE=1 ;;
    --from)
        FROM="$2"
        shift
        ;;
    *)
        echo "unknown argument: $1" >&2
        exit 2
        ;;
    esac
    shift
done

LOG=$(mktemp)
trap 'rm -f "$LOG"' EXIT

if [[ -n "$FROM" ]]; then
    cp "$FROM" "$LOG"
else
    cargo bench -p ns-bench --bench hotpath 2>&1 | tee "$LOG"
fi

python3 - "$REF" "$LOG" "$UPDATE" "$TOLERANCE" "$HOT_TOLERANCE" <<'PY'
import json, re, sys

ref_path, log_path, update, tol = sys.argv[1], sys.argv[2], sys.argv[3] == "1", float(sys.argv[4])
hot_tol = float(sys.argv[5])
# Benches covered by the zero-cost-when-disabled guarantee of the
# supervision/checkpoint layer: held to hot_tol instead of tol.
HOT_PREFIXES = ("train_step/",)
ref = json.load(open(ref_path))

# Bench stub output: "group/label: 12345.6 ns/iter (...)"
pat = re.compile(r"^([\w/]+(?:/[\w]+)*): ([0-9.]+) ns/iter")
fresh = {}
for line in open(log_path):
    m = pat.match(line.strip())
    if m:
        fresh[m.group(1)] = float(m.group(2))

if not fresh:
    print("bench_compare: no bench lines parsed from log", file=sys.stderr)
    sys.exit(1)

warned = 0
for name, entry in ref["results"].items():
    if name not in fresh:
        print(f"bench_compare: WARN {name}: missing from fresh run")
        warned += 1
        continue
    now, then = fresh[name], entry["post_pr_ns"]
    ratio = now / then if then else float("inf")
    limit = hot_tol if name.startswith(HOT_PREFIXES) else tol
    status = "ok"
    if ratio > limit:
        status = f"WARN slower than reference x{ratio:.2f} (tolerance x{limit})"
        warned += 1
    print(f"bench_compare: {name}: ref {then:.1f} ns, now {now:.1f} ns [{status}]")

for name in sorted(set(fresh) - set(ref["results"])):
    print(f"bench_compare: note: new bench {name} not in {ref_path}")

if update:
    for name, entry in ref["results"].items():
        if name in fresh:
            entry["post_pr_ns"] = fresh[name]
            pre = entry.get("pre_pr_reference_ns")
            if pre:
                entry["speedup"] = round(pre / fresh[name], 2)
    with open(ref_path, "w") as f:
        json.dump(ref, f, indent=2)
        f.write("\n")
    print(f"bench_compare: updated {ref_path}")

# Warn-only: drift never fails the build.
print(f"bench_compare: done ({warned} warning(s))")
PY
