#!/bin/sh
# Print the transcript of every CLI demo and example, one section per
# command under a "=== <command>" header.  Each runs on the simulated
# clock, so the transcript is deterministic; CI compares it with the
# committed BENCH_cli.txt.  Run from the repository root:
#
#   sh bench/cli.sh > BENCH_cli.txt
#
# Any command that exits non-zero stops the script with its status.
set -e
for cmd in "cluster" "cluster --drop=0.1" "delegate" "geo" "recovery" \
           "session Freddy --file /home/supervisor/secret=classified --trace" \
           "stats --trace"; do
  echo "=== idbox $cmd"
  # $cmd is split into its words on purpose.
  dune exec bin/idbox_cli.exe -- $cmd
done
for ex in quickstart chirp_remote_exec web_sandbox campus_grid hierarchy_demo; do
  echo "=== examples/$ex"
  dune exec examples/$ex.exe
done
