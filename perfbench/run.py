#!/usr/bin/env python3
"""Build the spdag perfbench driver from source and run one workload.

    python3 perfbench/run.py --workload fanin --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to stderr, so the last stdout line is the driver's result object.
--selftest checks the driver's arithmetic and that BENCHMARK.json lists
exactly the metrics the driver reports.
"""
import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
WORKLOADS = ("fanin", "stream")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def check_call(cmd):
    subprocess.run([str(c) for c in cmd], check=True, stdout=sys.stderr)


def build():
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists():
        check_call(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=Release"])
    check_call(["cmake", "--build", bdir, "--target", "perfbench",
                "perfbench_selftest", "-j", "4"])
    return bdir


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def result_line_ok(line):
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return (isinstance(obj, dict)
            and set(obj) == {"correct", "attempted", "failed", "metrics"})


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def schema_problems(bdir):
    """Differences between BENCHMARK.json and the driver's metric table."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([str(bdir / "perfbench"), "--schema"],
                         capture_output=True, text=True, check=True).stdout
    table = [line.split("\t") for line in out.splitlines() if line]
    problems = []
    for kind in ("end_to_end", "per_layer"):
        want = [(n, u, b) for n, u, b, k, _ in table if k == kind]
        have = [(m["name"], m["unit"], m["better"]) for m in spec[kind]]
        if want != have:
            problems.append(f"{kind}: BENCHMARK.json {have} != driver {want}")
    bounds = {n: float(bd) for n, _, _, k, bd in table if k == "end_to_end"}
    for m in spec["end_to_end"]:
        if abs(m["bound"] - bounds.get(m["name"], -1)) > 1e-12:
            problems.append(f"bound of {m['name']} differs from the driver")
        if not 0 < m["bound"] <= 0.25:
            problems.append(f"bound of {m['name']} outside (0, 0.25]")
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in spec[k]]
    for n in names:
        if not NAME.match(n):
            problems.append(f"bad name {n!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for k in ("end_to_end", "per_layer"):
        for m in spec[k]:
            if not UNIT.match(m["unit"]):
                problems.append(f"bad unit {m['unit']!r}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s must be an end_to_end metric in s, lower")
    workloads = [w["name"] for w in spec["workloads"]]
    if sorted(workloads) != sorted(WORKLOADS):
        problems.append(f"workloads {workloads} != driver {list(WORKLOADS)}")
    return problems


def selftest():
    bdir = build()
    rc = subprocess.run([str(bdir / "perfbench_selftest")]).returncode
    problems = schema_problems(bdir)
    for p in problems:
        print(f"schema: {p}")
    print("schema: ok" if not problems else "schema: FAILED")
    return 0 if rc == 0 and not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if not args.workload:
            ap.error("--workload is required")
        bdir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--spans", str(bdir / f"spans-{args.workload}-{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and not (lines and result_line_ok(lines[-1])):
        print("perfbench: no result line", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
