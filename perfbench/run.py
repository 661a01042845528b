#!/usr/bin/env python3
"""Benchmark of the Skil reproduction on the paper's workloads.

Builds perfbench/skilbench from the checkout's src/ (CMake, Release,
into .bench_build/perfbench), runs one workload and prints, as the last
stdout line, one JSON object with the keys correct, attempted, failed
and metrics.  The metrics are the end_to_end list of BENCHMARK.json
with --trace 0 and the per_layer list with --trace 1.

    python3 perfbench/run.py --workload gauss_table2 --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

An untraced run splits its seconds over several skilbench processes and
reports the median of their metrics, setup_s included.  Detail files
(every per-run vtime at %.17g, per-pass walls, the benchmark's spans)
go to .bench_out/.
"""
import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "skilbench"
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("gauss_table2", "shpaths_table1", "stencil_steps")
# Seconds each untraced measuring process gets: about one Gauss pass
# (5-6 s), four shortest-paths passes (1.2 s each) or two stencil passes
# (0.4 s each) on a 4-thread host.
SLICE_SECONDS = {"gauss_table2": 5.5, "shpaths_table1": 5.0,
                 "stencil_steps": 1.0}


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"{ROOT / 'src'} is missing: run from a full source checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "skilbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 1)


def load_spec():
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {SPEC}: {err}")


def measure(args, seconds):
    """Runs one skilbench process; returns its stdout lines and result."""
    done = subprocess.run([str(BINARY), *args, "--seconds", f"{seconds:.3f}"],
                          stdout=subprocess.PIPE, text=True,
                          timeout=seconds + 150)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit(done.returncode if done.returncode > 0 else 1)
    return lines[:-1], json.loads(lines[-1])


def bench(opts):
    spec = load_spec()
    build()
    OUT.mkdir(exist_ok=True)
    args = ["--workload", opts.workload, "--out-dir", str(OUT),
            "--trace", str(opts.trace)]
    if opts.seed is not None:
        args += ["--seed", str(opts.seed)]
    if opts.quick:
        args.append("--quick")

    # Untraced runs split --seconds over many short processes and take
    # the median of their medians: host noise comes in bursts of
    # seconds and in per-process offsets (carrier placement, address
    # layout), which more passes inside one process cannot average out.
    processes = 1
    if opts.trace == 0:
        processes = max(1, int(opts.seconds // SLICE_SECONDS[opts.workload]))
    results = []
    for k in range(processes):
        lines, result = measure(args, opts.seconds / processes)
        for line in lines:
            print(f"[{k}] {line}" if processes > 1 else line)
        results.append(result)

    # Every metric skilbench printed, as the median over the processes;
    # the result line carries the ones BENCHMARK.json names.
    metrics = {}
    measured = True  # false when a failed run left a metric null
    for name, first in results[0]["metrics"].items():
        got = [r["metrics"].get(name, {}).get("value") for r in results]
        values = [v for v in got if v is not None]
        measured = measured and len(values) == len(got)
        metrics[name] = {"value": statistics.median(values) if values else 0,
                         "unit": first["unit"]}
        if processes > 1:
            print(f"metric {name} {metrics[name]['value']!r} "
                  f"{first['unit']} (median of {processes} processes)")
    wanted = [m["name"] for m in
              spec["end_to_end" if opts.trace == 0 else "per_layer"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        fail(f"skilbench did not report {', '.join(missing)}", 1)
    # Virtual times are deterministic: every process must agree exactly.
    same_vtimes = len({r["metrics"].get("vtime_geomean_s", {}).get("value")
                       for r in results}) == 1
    print(json.dumps({
        "correct": measured and same_vtimes and
                   all(r["correct"] is True for r in results),
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": {name: metrics[name] for name in wanted},
    }))


def self_check():
    """Checks the CLI failure paths and that every metric BENCHMARK.json
    names is reported, with its unit, on every workload (shrunken grid,
    a few seconds)."""
    spec = load_spec()
    build()
    OUT.mkdir(exist_ok=True)
    problems = []

    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
    for w in spec["workloads"]:
        if not w.get("why"):
            problems.append(f"workload {w['name']} has no why")

    env = {k: v for k, v in os.environ.items() if not k.startswith("SKIL_")}
    cli_cases = [
        ("--help", ["--help"], {}, True, "usage:"),
        ("unknown flag", ["--workload", "gauss_table2", "--bogus"], {},
         False, "unknown flag"),
        ("unknown workload", ["--workload", "nope"], {}, False,
         "unknown workload"),
        ("missing out dir", ["--workload", "gauss_table2", "--out-dir",
                             str(OUT / "missing" / "dir")], {}, False,
         "missing or not writable"),
        ("SKIL_* set", ["--workload", "gauss_table2", "--out-dir", str(OUT),
                        "--quick", "--seconds", "0"], {"SKIL_COLL": "tree"},
         False, "SKIL_COLL"),
    ]
    for label, args, extra_env, ok, needle in cli_cases:
        done = subprocess.run([str(BINARY), *args], capture_output=True,
                              text=True, env={**env, **extra_env}, timeout=60)
        text = done.stdout + done.stderr
        if ok and done.returncode != 0:
            problems.append(f"{label}: exit {done.returncode}, expected 0")
        if not ok and done.returncode <= 0:
            problems.append(f"{label}: exit {done.returncode}, expected a "
                            "positive code (a negative one is a signal)")
        if needle not in text:
            problems.append(f"{label}: output lacks {needle!r}")

    # Two seconds: one measuring process per workload, except two for the
    # stencil, so the multi-process path is checked too.
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload, "--seconds", "2", "--trace", str(trace),
                 "--quick"],
                stdout=subprocess.PIPE, text=True, env=env, timeout=170)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}")
                continue
            lines = [re.sub(r"^\[\d+\] ", "", line)
                     for line in done.stdout.splitlines()]
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}")
            if result["attempted"] < 1:
                problems.append(f"{where}: nothing attempted")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                printed = any(line.startswith("metric " + m["name"] + " ")
                              for line in lines)
                if got is None or not printed:
                    problems.append(f"{where}: {m['name']} not reported")
                    continue
                if got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit "
                                    f"{got['unit']} != {m['unit']}")
                value = got["value"]
                if not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    problems.append(f"{where}: {m['name']} is not finite")
                elif key == "end_to_end" and value == 0:
                    problems.append(f"{where}: {m['name']} is 0")
            if not any(line.startswith("run ") and "vtime_s" in line
                       for line in lines):
                problems.append(f"{where}: no per-run vtimes printed")
            print(f"self-check {where}: {len(spec[key])} metrics checked")

    for problem in problems:
        print(f"self-check FAILED: {problem}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print("self-check passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrunken grid (self-check)")
    parser.add_argument("--self-check", action="store_true")
    opts = parser.parse_args()
    if opts.self_check:
        self_check()
    elif opts.workload is None:
        parser.error("--workload is required")
    elif opts.seed is not None and opts.seed < 0:
        parser.error("--seed must be non-negative")
    elif not 0 <= opts.seconds <= 600:
        parser.error("--seconds must be in [0, 600]")
    else:
        bench(opts)


if __name__ == "__main__":
    main()
