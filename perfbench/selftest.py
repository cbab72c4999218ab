#!/usr/bin/env python3
"""Self-test of the repository benchmark at smoke scale.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through perfbench/run.py --smoke, once
untraced and once traced, and checks that:
  * each run exits 0 and reports correct=true;
  * every metric BENCHMARK.json names is printed, with its unit, and no other;
  * every name matches [A-Za-z0-9_.-]+ (and the contract's length limits);
  * every workload records a one-line "why" in BENCHMARK.json, and every
    per-layer metric records in perfbench/layers.json which end-to-end
    metric it should move, on which workloads;
  * a traced run prints exactly the layer metrics layers.json declares
    absent for its workload as the absent value, and only those;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
Exits 1 on the first failed check.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(ok, message):
    if not ok:
        fail(message)


def check_declarations(bench, layers):
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    names = workloads + e2e + per_layer
    check(len(names) == len(set(names)), "a name is used twice in BENCHMARK.json")
    for name in names:
        check(NAME.match(name), f"name {name!r} breaks [A-Za-z0-9_.-]+")
    for metric in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(metric["unit"]), f"unit {metric['unit']!r} of {metric['name']}")
    for w in bench["workloads"]:
        why = w.get("why", "")
        check(why.strip() and "\n" not in why and len(why) <= 200,
              f"workload {w['name']} needs a one-line why of at most 200 characters")
    check(any(m["name"] == "setup_s" for m in bench["end_to_end"]), "setup_s missing")

    declared = {m["name"]: m for m in layers["metrics"]}
    check(sorted(declared) == sorted(per_layer),
          "layers.json and BENCHMARK.json per_layer name different metrics")
    for name, entry in declared.items():
        check(entry.get("layer"), f"{name}: no layer in layers.json")
        check(entry.get("moves"), f"{name}: no target end-to-end metric in layers.json")
        for move in entry["moves"]:
            check(move["metric"] in e2e, f"{name}: moves unknown metric {move['metric']}")
            check(move["workloads"] and set(move["workloads"]) <= set(workloads),
                  f"{name}: moves {move['metric']} on unknown workloads")
    for workload, absent in layers["absent"].items():
        check(workload in workloads, f"layers.json: unknown workload {workload}")
        check(set(absent) <= set(per_layer), f"layers.json: {workload} absent list names unknown metrics")
    return workloads


def run(workload, trace, cwd=ROOT, build_dir=None):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    if build_dir:
        env["CARGO_TARGET_DIR"] = build_dir
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def check_run(bench, layers, workload, trace):
    proc = run(workload, trace)
    label = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{label} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    check(len(lines) >= 2, f"{label}: no stamp and result lines")
    result, stamp = json.loads(lines[-1]), json.loads(lines[-2])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys")
    check(result["correct"] is True, f"{label}: correct is not true")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    check(isinstance(result["failed"], int) and result["failed"] == 0, f"{label}: failed")
    machine = stamp.get("machine", {})
    for key in ("nproc", "compiler", "build_type", "commit"):
        check(key in machine, f"{label}: stamp lacks machine.{key}")
    check(stamp.get("seed") == 7, f"{label}: stamp does not record the seed")

    expected = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(m["name"] for m in expected),
          f"{label}: printed metrics differ from BENCHMARK.json")
    for m in expected:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
        value = got["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {m['name']} is not a finite number")
    if trace:
        declared = set(layers["absent"].get(workload, []))
        check(set(stamp["absent"]) == declared,
              f"{label}: absent metrics {sorted(stamp['absent'])} != layers.json {sorted(declared)}")
        for name, got in metrics.items():
            is_absent = got["value"] == layers["absent_value"]
            check(is_absent == (name in declared), f"{label}: {name} absent/observed mismatch")
    else:
        for name, got in metrics.items():
            check(got["value"] > 0, f"{label}: end-to-end metric {name} is not positive")
    print(f"selftest: ok  {label}: {len(metrics)} metrics")


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: the build must fail, no result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run("star-vdi-src", 0, cwd=bare)
        check(proc.returncode != 0, "bare directory: benchmark exited 0")
        check(not proc.stdout.strip(), "bare directory: benchmark printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: ok  bare directory fails without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    workloads = check_declarations(bench, layers)
    print(f"selftest: ok  declarations ({len(workloads)} workloads)")
    for workload in workloads:
        for trace in (0, 1):
            check_run(bench, layers, workload, trace)
    check_bare_directory()
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
