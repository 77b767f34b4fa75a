#!/bin/bash
# Reproduce every table and figure at the paper's scale, and rewrite
# each BENCH_*.json at the scale its checked-in copy records.
set -u
cd "$(dirname "$0")"
export EOF_BENCH_HOURS=${EOF_BENCH_HOURS:-24} EOF_BENCH_REPS=${EOF_BENCH_REPS:-5}
# Campaign fan-out: EOF_JOBS workers per batch (empty = all host cores).
export EOF_JOBS=${EOF_JOBS:-}
# run BIN [VAR=value ...]: one bench bin, with its own scale knobs.
run() {
  local b=$1
  shift
  echo "=== $b ($(date +%T)) ==="
  env "$@" cargo run --release -p eof-bench --bin "$b" 2>/dev/null
}
for b in table1 table2 table3 table4 fig7 fig8 overhead_mem overhead_exec \
         ablate_inputs ablate_watchdogs ablate_validation ablate_sched \
         ablate_power ablate_irq; do
  run "$b"
done
run periph EOF_BENCH_HOURS=2 EOF_BENCH_REPS=3
run i2s EOF_BENCH_HOURS=2 EOF_BENCH_REPS=3
run trace EOF_BENCH_HOURS=0.1 EOF_BENCH_REPS=1
run fleet EOF_FLEET_HOURS=0.1 EOF_FLEET_REPS=2
run chaos EOF_CHAOS_HOURS=2 EOF_CHAOS_FAULTS=60
run fabric EOF_FABRIC_HOURS=0.06
echo "=== all done ($(date +%T)) ==="
