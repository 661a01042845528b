#!/usr/bin/env sh
# Appends one record to the engine wall-clock trajectory.
#
# Builds (if needed) and runs bench_engine_wall on the Table-2 sweep
# under both execution engines, then appends the result as one compact
# JSON record per line to BENCH_engine.json at the repo root.  Records
# are schema_version 11: run config (reps, resolved jobs, carriers,
# nproc, fuse mode, prof mode, coll mode), per-cell wall
# seconds and virtual times per engine, every repetition's wall time
# ("rep_wall_seconds") plus its median, the settlement counters
# (closed-form coverage), the fusion counters (compositions seen /
# fused / rejected, barriers and tape passes eliminated), the
# collective counters, the scheduler totals when profiled
# (--prof=counters: fibers, steals, parks, run time), and the
# engine totals; with --trace-out the record also names the exported
# trace/metrics files.  scripts/validate_bench_json.py checks the
# whole trajectory after every append.
#
# Pass --quick to restrict the grid to n in {64, 128} while iterating
# (the committed trajectory should only gain full-grid records),
# --reps=N for a min-of-N measurement, --jobs=N|auto for
# process-per-cell parallelism (auto = hardware concurrency),
# --carriers=N|auto to pin the pooled engine's carrier threads
# (exported as SKIL_CARRIERS so forked cell workers inherit it),
# --fuse=off|on to select the skeleton fusion mode (default: off;
# exported as SKIL_FUSE -- record an off/on pair at the same config
# for the EXPERIMENTS.md W6 same-build A/B), --prof and --coll as in
# bench_engine_wall, --engine=threads|pooled to time one engine, and
# --trace-out=DIR to re-run one representative cell under
# SKIL_TRACE=full and write its Chrome trace + metrics JSON into DIR
# (created if missing; the timed sweep itself stays untraced).
#
# When recording a --baseline, also pass --baseline-note describing
# which build/config produced that number -- the provenance is stored
# as "baseline_provenance" so a record can't silently compare
# mismatched configurations (e.g. a 1-carrier run against a 4-carrier
# baseline reads as a slowdown without it).
#
# Usage: scripts/bench_trajectory.sh [--quick] [--reps=N] [--jobs=N|auto]
#                                    [--carriers=N|auto]
#                                    [--fuse=off|on]
#                                    [--prof=off|counters]
#                                    [--coll=tree|ring|rd|auto]
#                                    [--engine=threads|pooled|both]
#                                    [--baseline=secs]
#                                    [--baseline-note=text]
#                                    [--trace-out=DIR]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

cmake -B build -S . >/dev/null
cmake --build build -j --target bench_engine_wall >/dev/null

record=$(mktemp)
trap 'rm -f "$record"' EXIT
./build/bench/bench_engine_wall "$@" --json="$record"

# One record per line: the first line alone is a valid JSON object,
# the file as a whole reads as JSON lines.
tr -s ' \n' ' ' < "$record" | sed 's/ $//' >> BENCH_engine.json
printf '\n' >> BENCH_engine.json
python3 scripts/validate_bench_json.py BENCH_engine.json
echo "appended to $repo_root/BENCH_engine.json"
