#!/usr/bin/env bash
# Full artifact run: the same pipeline as scripts/kick-tires.sh but with
# the large suite configuration (24 queries per class, 60-tuple databases,
# 160 serve requests per class, epsilon 0.35 / delta 0.1). Expect tens of
# minutes on a laptop.
set -euo pipefail
cd "$(dirname "$0")/.."

out=out
mkdir -p "$out"

cargo build --release

./target/release/cqc suite manifest > "$out/workload_suites.txt"
diff tests/golden/workload_suites.txt "$out/workload_suites.txt"
echo "suite manifest matches tests/golden/workload_suites.txt"

baseline_args=()
if [ -f BENCH_workloads.json ]; then
    cp BENCH_workloads.json "$out/BENCH_workloads.baseline.json"
    baseline_args=(--baseline "$out/BENCH_workloads.baseline.json")
fi

./target/release/cqc suite --mode full --out "$out/BENCH_workloads.full.json"

./target/release/cqc report bench --current "$out/BENCH_workloads.full.json" \
    "${baseline_args[@]}" | tee "$out/report.txt"
