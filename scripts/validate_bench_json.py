#!/usr/bin/env python3
"""Validates the benchmark trajectory files (JSON-lines records).

Every non-empty line must parse as a standalone JSON object and carry
an integer ``schema_version`` plus the fields that version promises
(see the schema history in bench/bench_engine_wall.cpp).  The file is
append-only across PRs, so old records keep validating under their own
version's contract -- this script is what keeps a schema bump from
silently orphaning the history.

Usage: scripts/validate_bench_json.py [FILE ...]
       (default: BENCH_engine.json at the repo root)

Exits non-zero naming the file, line and violation on the first
failure.
"""

import json
import pathlib
import sys

# Fields every record must carry, by the schema version that introduced
# them.  A record of version v must carry every field introduced at or
# below v.
FIELDS_BY_VERSION = {
    1: ["benchmark", "grid", "engines", "vtimes_identical_across_engines"],
    2: ["reps", "jobs", "nproc", "charge"],
    3: [],  # v3 added per-engine rep_wall_seconds (checked below)
    4: ["carriers"],
    5: ["settle"],  # also per-engine median/settle_counters and
                    # baseline_provenance (checked below)
    6: ["fuse"],    # also per-engine fusion_counters (checked below)
    7: ["prof"],    # also per-engine scheduler iff prof != off
                    # (checked below)
    8: ["coll"],    # also per-engine coll_counters (checked below)
    9: [],          # dropped "settle" and the retired fields below
}
MAX_KNOWN_VERSION = max(FIELDS_BY_VERSION)

# Fields a later version dropped: field -> first version without it.
RETIRED_FIELDS = {"settle": 9}

# The settlement-counter fields every v5+ engine record must account
# for (bench/bench_engine_wall.cpp schema history).
SETTLE_COUNTER_FIELDS = [
    "closed_runs", "closed_adds", "memo_hits", "memo_misses", "memo_adds",
    "probe_adds", "chain_records", "chain_adds", "closed_coverage",
]

# v5-v8 records also carry the counters of the batched settlement
# kernel that v9 retired: three more settle counters and, when
# profiled, five more scheduler fields (the v9 entry of the schema
# history lists them).  Those records must still be that much wider.
RETIRED_SETTLE_COUNTERS = 3
RETIRED_SCHEDULER_FIELDS = 5

# The fusion-counter fields every v6+ engine record must account for.
# An off-mode record carries them too (all zero): their presence is
# what lets an off/on A/B pair be diffed mechanically.
FUSION_COUNTER_FIELDS = [
    "seen", "fused", "rejected_shape", "rejected_order", "rejected_path",
    "barriers_eliminated", "tapes_eliminated",
]

# The collective-counter structure every v8+ engine record must carry:
# one object per collective op, each accounting per-algorithm calls
# plus the hop-cost totals.  Like fusion_counters, a tree-mode record
# carries the block too -- its all-zero non-tree columns are what let
# a tree/auto A/B pair be diffed mechanically.
COLL_OPS = ["broadcast", "reduce", "allreduce", "allgather"]
COLL_ALGOS = ["tree", "ring", "rd", "rabenseifner"]
COLL_OP_FIELDS = ["calls", "bytes", "hops", "steps"]

# The host scheduler fields every v7+ engine record must carry when the
# run was profiled (prof != off).  Unlike fusion_counters, an off-mode
# record must NOT carry the block at all: SKIL_PROF=off promises a
# report indistinguishable from an unprofiled build's.
SCHEDULER_FIELDS = [
    "fibers_run", "fibers_resumed", "steal_attempts", "steal_successes",
    "steal_failed_rounds", "parks", "unparks", "run_ns", "pool_acquires",
    "pool_hits", "pool_misses", "pool_bytes",
]


def fail(path, lineno, message):
    sys.exit(f"{path}:{lineno}: {message}")


def validate_record(path, lineno, record):
    if not isinstance(record, dict):
        fail(path, lineno, f"expected a JSON object, got {type(record).__name__}")
    version = record.get("schema_version")
    if not isinstance(version, int) or version < 1:
        fail(path, lineno,
             f"missing or invalid schema_version: {version!r} "
             "(every record must carry a positive integer schema_version)")
    if version > MAX_KNOWN_VERSION:
        fail(path, lineno,
             f"schema_version {version} is newer than this validator "
             f"(max known: {MAX_KNOWN_VERSION}); update "
             "FIELDS_BY_VERSION alongside the schema bump")
    for v, fields in FIELDS_BY_VERSION.items():
        if v > version:
            continue
        for field in fields:
            if version >= RETIRED_FIELDS.get(field, MAX_KNOWN_VERSION + 1):
                continue
            if field not in record:
                fail(path, lineno,
                     f"schema_version {version} record is missing "
                     f"'{field}' (required since v{v})")
    engines = record["engines"]
    if not isinstance(engines, list) or not engines:
        fail(path, lineno, "'engines' must be a non-empty array")
    for engine in engines:
        for field in ("engine", "wall_seconds"):
            if field not in engine:
                fail(path, lineno, f"engine record is missing '{field}'")
        if version >= 3 and "rep_wall_seconds" not in engine:
            fail(path, lineno,
                 "v3+ engine record is missing 'rep_wall_seconds'")
        if version >= 5:
            if "median_wall_seconds" not in engine:
                fail(path, lineno,
                     "v5+ engine record is missing 'median_wall_seconds'")
            counters = engine.get("settle_counters")
            if not isinstance(counters, dict):
                fail(path, lineno,
                     "v5+ engine record is missing 'settle_counters'")
            for field in SETTLE_COUNTER_FIELDS:
                if field not in counters:
                    fail(path, lineno,
                         f"v5+ settle_counters is missing '{field}'")
            if version <= 8 and len(counters) < \
                    len(SETTLE_COUNTER_FIELDS) + RETIRED_SETTLE_COUNTERS:
                fail(path, lineno,
                     "v5-v8 settle_counters is missing the retired "
                     "batched-settlement counters")
        if version >= 6:
            fusion = engine.get("fusion_counters")
            if not isinstance(fusion, dict):
                fail(path, lineno,
                     "v6+ engine record is missing 'fusion_counters'")
            for field in FUSION_COUNTER_FIELDS:
                if field not in fusion:
                    fail(path, lineno,
                         f"v6+ fusion_counters is missing '{field}'")
            if record.get("fuse") == "off" and fusion.get("fused", 0) != 0:
                fail(path, lineno,
                     "fuse=off record reports fused compositions -- the "
                     "off path must be byte-identical to the unfused "
                     "engine")
        if version >= 8:
            coll = engine.get("coll_counters")
            if not isinstance(coll, dict):
                fail(path, lineno,
                     "v8+ engine record is missing 'coll_counters'")
            if "order_fallbacks" not in coll:
                fail(path, lineno,
                     "v8+ coll_counters is missing 'order_fallbacks'")
            for op in COLL_OPS:
                block = coll.get(op)
                if not isinstance(block, dict):
                    fail(path, lineno,
                         f"v8+ coll_counters is missing the '{op}' block")
                for field in COLL_OP_FIELDS:
                    if field not in block:
                        fail(path, lineno,
                             f"v8+ coll_counters['{op}'] is missing "
                             f"'{field}'")
                calls = block["calls"]
                if not isinstance(calls, dict):
                    fail(path, lineno,
                         f"v8+ coll_counters['{op}']['calls'] must be an "
                         "object keyed by algorithm")
                for algo in COLL_ALGOS:
                    if algo not in calls:
                        fail(path, lineno,
                             f"v8+ coll_counters['{op}']['calls'] is "
                             f"missing '{algo}'")
                if record.get("coll") == "tree":
                    # SKIL_COLL=tree pins every collective to the
                    # binomial tree; any non-tree pick means the mode
                    # override leaked.
                    for algo in COLL_ALGOS:
                        if algo != "tree" and calls.get(algo, 0) != 0:
                            fail(path, lineno,
                                 f"coll=tree record reports {op} calls "
                                 f"via '{algo}' -- the tree override "
                                 "must pin every collective")
        if version >= 7:
            sched = engine.get("scheduler")
            if record.get("prof") == "off":
                if sched is not None:
                    fail(path, lineno,
                         "prof=off record carries a 'scheduler' block -- "
                         "the off path must record nothing (it promises "
                         "zero observable profiling work)")
            else:
                if not isinstance(sched, dict):
                    fail(path, lineno,
                         "v7+ profiled engine record is missing "
                         "'scheduler'")
                for field in SCHEDULER_FIELDS:
                    if field not in sched:
                        fail(path, lineno,
                             f"v7+ scheduler is missing '{field}'")
                if version <= 8 and len(sched) < \
                        len(SCHEDULER_FIELDS) + RETIRED_SCHEDULER_FIELDS:
                    fail(path, lineno,
                         "v7-v8 scheduler is missing the retired "
                         "batched-settlement fields")
                # Conservation invariants: a violated one means the
                # counter plumbing dropped or double-counted events.
                if sched["steal_successes"] > sched["steal_attempts"]:
                    fail(path, lineno,
                         "scheduler reports more steal successes than "
                         "attempts")
                if sched["pool_hits"] + sched["pool_misses"] \
                        != sched["pool_acquires"]:
                    fail(path, lineno,
                         "scheduler pool hits + misses != acquires")
    if version >= 5 and "baseline_wall_seconds" in record \
            and "baseline_provenance" not in record:
        # Satellite of ISSUE 6: a bare baseline float invites
        # misleading speedup/slowdown readings -- the record must say
        # which build/config produced it.
        fail(path, lineno,
             "v5+ record has baseline_wall_seconds without "
             "baseline_provenance")


def validate_file(path):
    text = path.read_text()
    # A raw bench_engine_wall --json report is one pretty-printed
    # object; the committed trajectory is one compact record per line
    # (bench_trajectory.sh flattens on append).  Accept both.
    try:
        validate_record(path, 1, json.loads(text))
        print(f"{path}: 1 record ok")
        return
    except json.JSONDecodeError:
        pass
    records = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            fail(path, lineno, f"line does not parse as JSON: {err}")
        validate_record(path, lineno, record)
        records += 1
    if records == 0:
        sys.exit(f"{path}: no records")
    print(f"{path}: {records} record(s) ok")


def main(argv):
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [pathlib.Path(a) for a in argv[1:]] or [root / "BENCH_engine.json"]
    for path in paths:
        if not path.exists():
            sys.exit(f"{path}: no such file")
        validate_file(path)


if __name__ == "__main__":
    main(sys.argv)
