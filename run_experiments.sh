#!/bin/bash
# Regenerate every table and figure (HUS_SCALE=1000 by default).
set -u
cd "$(dirname "$0")"
BINS="table2_datasets fig1_active_edges fig7_hybrid fig8_prediction table3_runtime fig9_io fig10_threads fig11_devices ablation_alpha ablation_partitions ablation_synchrony exp_semi_external exp_high_diameter"
for b in $BINS; do
  echo "=== $b (start $(date +%H:%M:%S)) ==="
  ./target/release/$b > results/$b.txt 2>&1 && echo "ok" || echo "FAILED"
done
echo "ALL DONE $(date +%H:%M:%S)"
