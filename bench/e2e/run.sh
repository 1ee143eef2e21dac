#!/usr/bin/env bash
# The end-to-end benchmark (bench/e2e/README.md). Builds the benchmark and
# the library from this checkout, then runs one workload in one process:
#
#   bench/e2e/run.sh --workload <point|wide|fleet|plan> --seed <n>
#                    [--seconds <s>] [--trace <0|1|FILE>] [--out FILE]
#   bench/e2e/run.sh --smoke
#
# Flags go to the duet_e2e binary unchanged (--name value or --name=value);
# an unknown flag or workload name exits nonzero. The last line of stdout is
# the result object; --out also writes the full JSON record to a file.
#
# --smoke runs every workload for 1 s untraced and 1 s traced, then checks
# the result lines against BENCHMARK.json, that every span's parent
# resolves and encloses it, and that answers were checked.
#
# Build products and scratch files live under .bench_build/ at the root.
set -euo pipefail
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
WORK="$ROOT/.bench_build/e2e"
BUILD="$WORK/build"
cd "$ROOT"
mkdir -p "$WORK"

build() {
  if ! { cmake -S bench/e2e -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
         cmake --build "$BUILD" --target duet_e2e -j "$(nproc)"; } > "$WORK/build.log" 2>&1; then
    tail -n 30 "$WORK/build.log" >&2
    echo "run.sh: build failed (full log: $WORK/build.log)" >&2
    exit 1
  fi
}

if [ "${1:-}" = "--smoke" ]; then
  [ "$#" -eq 1 ] || { echo "run.sh: --smoke takes no other flags" >&2; exit 2; }
  build
  out="$WORK/smoke"
  rm -rf "$out"
  mkdir -p "$out"
  status=0
  for w in point wide fleet plan; do
    if "$BUILD/duet_e2e" --workload "$w" --seed 1 --seconds 1 --setups 1 \
         > "$out/$w-e2e.log" 2>&1 &&
       "$BUILD/duet_e2e" --workload "$w" --seed 1 --seconds 1 --setups 1 \
         --trace "$out/$w-trace.json" > "$out/$w-layer.log" 2>&1 &&
       python3 bench/e2e/check.py --benchmark BENCHMARK.json --e2e "$out/$w-e2e.log" \
         --layer "$out/$w-layer.log" --trace "$out/$w-trace.json"; then
      echo "$w: ok"
    else
      echo "$w: FAIL (logs in $out)"
      status=1
    fi
  done
  exit "$status"
fi

build
sha="$(git -C "$ROOT" rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$sha" != unknown ] && [ -n "$(git -C "$ROOT" status --porcelain 2>/dev/null)" ]; then
  sha="$sha+dirty"
fi
exec "$BUILD/duet_e2e" "$@" --sha "$sha"
