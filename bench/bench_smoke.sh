#!/usr/bin/env bash
# Smoke-runs the given bench binaries at a tiny scale so the bench suite
# cannot silently bit-rot: each binary must exit 0. Wired into CTest as the
# `bench_smoke` test (ctest -L bench_smoke), which passes exactly the bench
# targets CMakeLists.txt declares; by hand:
#
#   bench/bench_smoke.sh <bench binary>...
#
# DUET_BENCH_SCALE shrinks datasets/workloads/training budgets; 0.05 keeps
# the whole sweep in CI-friendly time. DUET_BENCH_BACKENDS selects which
# packed-weight backends the throughput sweep smoke-runs (default: all
# five, so none of the backend code paths can silently bit-rot). Every
# binary rejects unknown flags, so a stale flag below fails the smoke.
set -u
export DUET_BENCH_SCALE="${DUET_BENCH_SCALE:-0.05}"
BACKENDS="${DUET_BENCH_BACKENDS:-dense,csr,int8,f16,int4}"

status=0
ran=0
for bin in "$@"; do
  if [ ! -x "$bin" ] || [ ! -f "$bin" ]; then
    echo "FAIL $bin (not an executable)"
    status=1
    continue
  fi
  name="$(basename "$bin")"
  extra=""
  case "$name" in
    # Keep the inference sweep short; coverage, not measurement. --backend
    # makes every packed-weight backend take the kernel + plan paths, and
    # the tiny --live_update run exercises the registry/hot-swap/worker
    # pipeline end to end.
    bench_table3_throughput)
      extra="--sweep_queries=64 --sweep_min_seconds=0.05 --backend=$BACKENDS"
      extra="$extra --live_update --live_queries=128 --live_publishes=1"
      extra="$extra --live_min_seconds=0.5 --live_max_seconds=30"
      # The overload sweep smoke-runs the admission-control path (bounded
      # queue + deadlines + shed-to-fallback) at a sub-second phase length.
      extra="$extra --overload --overload_seconds=0.5" ;;
    # Small fleet + sub-second steady phase keeps the zoo smoke quick while
    # still exercising cold-start loads, Zipf traffic, eviction churn and
    # the zero-repack assertion (the binary exits nonzero if any zoo load
    # or serve repacked weights).
    bench_zoo)
      extra="--models=24 --cold_samples=16 --steady_seconds=0.3" ;;
    # Sub-second closed-loop phases over loopback: exercises the epoll
    # server, the DuetRpc codec, wire batching and the open-loop pacer
    # without turning the smoke into a throughput measurement.
    bench_net)
      extra="--net_min_seconds=0.15 --conns_sweep=1,4" ;;
    # Few queries + a short training budget keep the optimizer-in-the-loop
    # bench quick; the binary still plans through the zoo-mode serving
    # engine and exits nonzero unless the oracle provider reproduces the
    # optimal plan on every query (P-error == 1.0 exactly).
    bench_optimizer_plancost)
      extra="--queries=10 --epochs=6" ;;
  esac
  start=$(date +%s)
  if "$bin" $extra >/dev/null 2>&1; then
    echo "ok   $name ($(($(date +%s) - start))s)"
  else
    echo "FAIL $name (exit $?)"
    status=1
  fi
  ran=$((ran + 1))
done

if [ "$ran" -eq 0 ]; then
  echo "usage: bench/bench_smoke.sh <bench binary>..." >&2
  exit 1
fi
exit $status
