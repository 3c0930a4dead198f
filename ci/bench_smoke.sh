#!/usr/bin/env bash
# Benchmark smoke: each workload runs for 1 s at seed 1 with no failed op, and its
# trace digest equals the pin below, so a change that alters a trace, witness or
# verdict fails here. Then deep-terms runs once traced, with no failed op.
#
# Run from the repository root: bash ci/bench_smoke.sh
# perfbench/run.py imports pathrw from src/. The first check that fails exits non-zero.
set -euo pipefail

pins=(
  pair-sweep=9ba4331f86a3de7e61e115f388951b660814db842c42c821d54d81dc328c275c
  deep-terms=18de0218280b94d7cdcd1501aadfdf0f811c4b2b60da2db21554d9e8cc9abe29
  tower-laws=fe6364010a0726d9a8986e00b84759112241acf16210ca6c5e0e6749a16809fd
  cli-mix=aed62cd047a97ff86459924b991da2c8a7e108d147a4464d259c036ce011f07b
)

# check LABEL OUTPUT [DIGEST]: print the result line; fail on a failed op, or a
# trace digest other than DIGEST when one is given.
check() {
  python3 - "$@" <<'EOF'
import json
import sys

label, out, pinned = sys.argv[1], sys.argv[2], sys.argv[3] if len(sys.argv) > 3 else None
lines = out.splitlines()
print(f"{label}: {lines[-1]}")
if json.loads(lines[-1])["failed"] != 0:
    sys.exit(f"{label}: failed ops")
if pinned is not None:
    info = next(line for line in lines if line.startswith("info: "))
    digest = json.loads(info[len("info: "):])["trace_digest"]
    print(f"{label}: trace_digest {digest}")
    if digest != pinned:
        sys.exit(f"{label}: trace_digest differs from the pin {pinned}")
EOF
}

for pinned in "${pins[@]}"; do
  w=${pinned%%=*}
  out=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0) || {
    echo "$w: exit status $?"; exit 1; }
  check "$w" "$out" "${pinned#*=}"
done
out=$(python3 perfbench/run.py --workload deep-terms --seed 1 --seconds 1 --trace 1) || {
  echo "deep-terms traced: exit status $?"; exit 1; }
check "deep-terms traced" "$out"
