#!/bin/bash
# Regenerate every table and figure (HUS_SCALE=1000 by default).
# CI runs it at HUS_SCALE=50000 (about 95 s on a 2-vCPU guest) to check
# that every binary still runs; the script exits 1 if any binary fails.
set -u
cd "$(dirname "$0")"
BINS="table2_datasets fig1_active_edges fig7_hybrid fig8_prediction table3_runtime fig9_io fig10_threads fig11_devices ablation_predictor ablation_partitions exp_semi_external exp_high_diameter"
failed=0
for b in $BINS; do
  echo "=== $b (start $(date +%H:%M:%S)) ==="
  if ./target/release/$b > results/$b.txt 2>&1; then
    echo "ok"
  else
    echo "FAILED"
    failed=1
  fi
done
echo "ALL DONE $(date +%H:%M:%S)"
exit $failed
