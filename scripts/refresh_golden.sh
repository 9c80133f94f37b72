#!/usr/bin/env bash
# Regenerates the tests/golden/ snapshots after an *intentional* harness
# output change. One command, then commit the diff:
#
#   ./scripts/refresh_golden.sh            # uses build/ (BUILD_DIR to override)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"

cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target bench_table1_design_choices bench_table2_issues \
  bench_faults_resilience bench_report_rollup bench_diag_rootcause \
  bench_pop_distributions bench_pop_table2 bench_origin_resilience \
  bench_report_formats

mkdir -p tests/golden
"$BUILD_DIR/bench/bench_table1_design_choices" > tests/golden/table1.txt
"$BUILD_DIR/bench/bench_table2_issues" > tests/golden/table2.txt
"$BUILD_DIR/bench/bench_faults_resilience" > tests/golden/faults.txt
"$BUILD_DIR/bench/bench_report_rollup" > tests/golden/report.txt
"$BUILD_DIR/bench/bench_diag_rootcause" > tests/golden/diag.txt
"$BUILD_DIR/bench/bench_pop_distributions" > tests/golden/pop.txt
"$BUILD_DIR/bench/bench_pop_table2" > tests/golden/pop_table2.txt
"$BUILD_DIR/bench/bench_pop_table2" --timeline-csv > tests/golden/pop_timeline.csv
"$BUILD_DIR/bench/bench_origin_resilience" > tests/golden/origin.txt
mkdir -p tests/golden/formats
for fmt in $("$BUILD_DIR/bench/bench_report_formats" --list); do
  "$BUILD_DIR/bench/bench_report_formats" --format "$fmt" \
    > "tests/golden/formats/$fmt.golden"
done
echo "refreshed tests/golden/{table1,table2,faults,report,diag,pop,pop_table2,origin}.txt"
echo "refreshed tests/golden/pop_timeline.csv"
echo "refreshed tests/golden/formats/*.golden"
