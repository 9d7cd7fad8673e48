#!/usr/bin/env python3
"""Smoke self-test of the benchmark, at tiny scale (about a minute).

    python3 wbbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it
runs run.py --smoke with --trace 0 and --trace 1, and checks that the
result line has exactly the contract's keys, is correct, and carries
every end_to_end (resp. per_layer) metric of BENCHMARK.json with its
unit and a finite value, also printed on a readable line. It also
checks that the fig8 pins equal BENCH_10.json's fingerprints, and that
run.py fails without printing a result when the simulator sources are
missing. Exit 0 when all hold.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print(f"FAIL {msg}", flush=True)
    return cond


def run(cmd, cwd, env=None):
    return subprocess.run(cmd, cwd=cwd, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=600)


def check_result(workload, trace, spec):
    p = run([sys.executable, "wbbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", str(trace),
             "--smoke"], ROOT)
    tag = f"{workload} --trace {trace}"
    if not check(p.returncode == 0, f"{tag}: exit {p.returncode}\n{p.stderr}"):
        return
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
          f"{tag}: result keys {sorted(res)}")
    check(res["correct"] is True and res["failed"] == 0
          and res["attempted"] >= 1, f"{tag}: not correct: {res}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = res["metrics"]
    check(set(got) == set(want),
          f"{tag}: metrics differ: missing {set(want) - set(got)}, "
          f"extra {set(got) - set(want)}")
    for name, unit in want.items():
        m = got.get(name, {})
        check(m.get("unit") == unit,
              f"{tag}: {name} unit {m.get('unit')!r} != {unit!r}")
        v = m.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v),
              f"{tag}: {name} value {v!r}")
        check(any(l.split()[:1] == [name] and l.split()[-1:] == [unit]
                  for l in lines[:-1]),
              f"{tag}: no readable line for {name} [{unit}]")
    print(f"ok   {tag}: {len(got)} metrics", flush=True)


def check_pins():
    bench10 = os.path.join(ROOT, "BENCH_10.json")
    if not os.path.exists(bench10):
        print("skip BENCH_10.json not found")
        return
    with open(bench10) as f:
        ref = {c["name"]: c["fingerprint"] for c in json.load(f)["cells"]}
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)["workloads"]["fig8-sweep"]
    check(len(pins) == 66 and all(ref.get(k) == v for k, v in pins.items()),
          "fig8 pins differ from BENCH_10.json")
    print("ok   fig8 pins equal BENCH_10.json", flush=True)


def check_stripped():
    """Only BENCHMARK.json and wbbench/: must fail, print no result."""
    top = os.path.join(BUILD, "selftest-stripped")
    shutil.rmtree(top, ignore_errors=True)
    os.makedirs(top)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), top)
        shutil.copytree(HERE, os.path.join(top, "wbbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        p = run([sys.executable, "wbbench/run.py", "--workload",
                 "fig8-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], top, env)
        last = (p.stdout.strip().splitlines() or [""])[-1]
        check(p.returncode != 0 and '"correct"' not in last,
              f"stripped tree: exit {p.returncode}, last line {last!r}")
        print(f"ok   stripped tree fails with exit {p.returncode}",
              flush=True)
    finally:
        shutil.rmtree(top, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_pins()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace, spec)
    check_stripped()
    print("selftest:", "FAILED" if failures else "ok")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
