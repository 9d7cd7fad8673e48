#!/usr/bin/env python3
"""Repository benchmark: WritersBlock simulator throughput, end to end
and layer by layer.

    python3 wbbench/run.py --workload fig8-sweep --seed 0 --seconds 20 --trace 0

Run from the repository root. Builds wbbench_harness (and the simulator
sources it links) with CMake into $CARGO_TARGET_DIR or .bench_build,
then runs whole rounds of the workload's batch of simulations (its
cells), each round in fresh harness processes, until the next round
would overrun --seconds (at least one round). Every cell is checked
(completion, clean teardown, TSO checker, fingerprint pins at seed 0,
identical fingerprints across rounds); a failing cell counts against
pass_ratio and never in throughput.

--trace 0 prints the end-to-end metrics (medians over rounds).
--trace 1 runs an untraced round, a traced round and an untraced round
at the other shard count, prints the per-layer metrics, and fails if
any fingerprint differs between them.

The last stdout line is the JSON result; earlier lines are a readable
summary, the host/build metadata and the cell fingerprints.
See wbbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig8-sweep", "fig10-modes", "canneal-2shard")
# The second untraced round of a traced run uses the other shard
# count, which gives shard.speedup.
ALT_SHARDS = {"fig8-sweep": 2, "fig10-modes": 2, "canneal-2shard": 1}
# Workloads whose cells are separate long runs: each cell gets a
# fresh harness process, so each pays the cold-start set-up a fresh
# wbsim run pays.
PROCESS_PER_CELL = {"canneal-2shard"}
# --smoke: a tiny version of every workload, for selftest.py.
SMOKE_ARGS = ["--profiles", "fft,lu_cb", "--scale", "0.05"]
PASS_TIMEOUT_S = 170

END_TO_END = {
    "kips": "kinst/s",
    "sim_kcycles_per_s": "kcycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

PER_LAYER = {
    "workload.make_s": "s",
    "system.construct_s": "s",
    "system.run_s": "s",
    "system.finish_s": "s",
    "system.engine_self_s": "s",
    "system.engine_self_share": "ratio",
    "core.halted_tick_share": "ratio",
    "core.stall_rob_share": "ratio",
    "core.stall_lq_share": "ratio",
    "core.stall_sq_share": "ratio",
    "core.stall_other_share": "ratio",
    "core.useful_ratio": "ratio",
    "core.ooo_commit_share": "ratio",
    "core.lockdowns_set": "count",
    "core.ldt_exports": "count",
    "coh.l1.handle_s": "s",
    "coh.l1.handle_calls": "count",
    "coh.llc.handle_s": "s",
    "coh.llc.handle_calls": "count",
    "coh.handle_share": "ratio",
    "l1.miss_ratio": "ratio",
    "l1.tearoff_retries": "count",
    "l1.nacks_sent": "count",
    "llc.wb_entries": "count",
    "llc.wb_encounters": "count",
    "llc.deferrals": "count",
    "net.messages_per_kinst": "msgs/kinst",
    "net.flit_hops_per_kinst": "hops/kinst",
    "net.link_wait_cycles": "cycles",
    "net.ooo_delivered": "count",
    "net.ns_per_msg": "ns",
    "sim.events": "count",
    "sim.events_per_kinst": "events/kinst",
    "sim.ns_per_event": "ns",
    "checker.events": "count",
    "checker.replay_s": "s",
    "checker.ns_per_event": "ns",
    "checker.violations": "count",
    "shard.speedup": "ratio",
    "shard.efficiency": "ratio",
    "trace.overhead_ratio": "ratio",
}


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, what, timeout=None):
    """Run @cmd, returning stdout; any failure ends the benchmark
    without a result line."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"{what} failed: {e}")
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        die(f"{what} exited with {p.returncode}")
    sys.stderr.write(p.stderr)
    return p.stdout


def build():
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    # A cache configured for another source tree makes cmake refuse.
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)
    # Keep the compiler's temporary files inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    if not os.path.exists(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", HERE, "-B", build_dir, *gen],
                    "cmake configure")
    run_checked(["cmake", "--build", build_dir, "--target",
                 "wbbench_harness", "-j", str(os.cpu_count() or 1)],
                "cmake build")
    return os.path.join(build_dir, "wbbench_harness")


def harness_json(exe, args, what):
    out = run_checked([exe, *args], what, timeout=PASS_TIMEOUT_S)
    lines = out.strip().splitlines()
    if not lines:
        die(f"{what} printed nothing")
    return json.loads(lines[-1])


def run_round(exe, args, shards=None, trace=False):
    """Run every cell of the workload once and merge the harness
    output(s) into one round: cells concatenated, peak RSS maxed,
    layer totals summed."""
    cmd = ["cells", "--workload", args.workload, "--seed",
           str(args.seed)]
    if shards is not None:
        cmd += ["--shards", str(shards)]
    if trace:
        cmd.append("--trace")
    if args.smoke:
        cmd += SMOKE_ARGS
    what = f"{args.workload} round"
    if args.workload not in PROCESS_PER_CELL:
        parts = [harness_json(exe, cmd, what)]
    else:
        parts = [harness_json(exe, cmd + ["--only", "0"], what)]
        parts += [harness_json(exe, cmd + ["--only", str(i)], what)
                  for i in range(1, parts[0]["total_cells"])]
    r = {"shards": parts[0]["shards"],
         "cells": [c for p in parts for c in p["cells"]],
         "peak_rss_kb": max(p["peak_rss_kb"] for p in parts),
         "role": ("traced" if trace else "untraced") +
                 f" {parts[0]['shards']}-shard"}
    if trace:
        r["layers"] = {k: sum(p["layers"][k] for p in parts)
                       for k in parts[0]["layers"]}
    return r


def judge(rounds, pins):
    """Mark every cell ok or not. A cell fails on an in-process check
    (completion, teardown, TSO), on a pin mismatch, or when its
    fingerprint differs from the first round's: across repeated
    rounds that is nondeterminism, across traced/untraced rounds it
    is perturbation by the tracing, across shard counts a sharding
    bug. @return the failure messages."""
    first = {}
    failures = []
    for p in rounds:
        for c in p["cells"]:
            why = c["why"]
            if not why and pins is not None and pins.get(c["name"]) != c["fp"]:
                why = f"fingerprint {c['fp']} != pinned {pins.get(c['name'])}"
            ref = first.setdefault(c["name"], (p["role"], c["fp"]))
            if not why and ref[1] != c["fp"]:
                why = (f"{p['role']} fingerprint {c['fp']} != "
                       f"{ref[0]} fingerprint {ref[1]}")
            c["ok"] = not why
            if why:
                failures.append(f"{c['name']} ({p['role']}): {why}")
    return failures


def sums(p, ok_only=False):
    cells = [c for c in p["cells"] if c["ok"] or not ok_only]
    keys = ("wall_s", "instructions", "cycles", "make_s",
            "construct_s", "run_s", "finish_s")
    return {k: sum(c[k] for c in cells) for k in keys}


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(rounds):
    rows = []
    for p in rounds:
        ok = sums(p, ok_only=True)
        rows.append({
            "kips": ratio(ok["instructions"], ok["wall_s"]) / 1e3,
            "sim_kcycles_per_s": ratio(ok["cycles"], ok["wall_s"]) / 1e3,
            "setup_s": sum(c["make_s"] + c["construct_s"]
                           for c in p["cells"]),
            "peak_rss_mb": p["peak_rss_kb"] / 1024.0,
        })
    m = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    cells = [c for p in rounds for c in p["cells"]]
    m["pass_ratio"] = sum(c["ok"] for c in cells) / len(cells)
    return m


def per_layer(untraced, traced, alt, micro):
    L = traced["layers"]
    t = sums(traced)
    instr = t["instructions"]
    kinst = instr / 1e3
    shards = traced["shards"]
    # Handler spans are summed over the shard threads; divide by the
    # shard count to compare them with wall-clock phases.
    handle_run = L["run_handle_s"] / shards
    handle_all = (L["l1_handle_s"] + L["llc_handle_s"]) / shards
    one, two = (untraced, alt) if untraced["shards"] == 1 else (alt, untraced)
    speedup = ratio(sums(one)["run_s"], sums(two)["run_s"])
    u = sums(untraced)
    return {
        "workload.make_s": t["make_s"],
        "system.construct_s": t["construct_s"],
        "system.run_s": t["run_s"],
        "system.finish_s": t["finish_s"],
        "system.engine_self_s": t["run_s"] - handle_run,
        "system.engine_self_share": ratio(t["run_s"] - handle_run,
                                          t["wall_s"]),
        "core.halted_tick_share": ratio(L["halted_ticks"], L["core_ticks"]),
        "core.stall_rob_share": ratio(L["stall_rob"], L["core_ticks"]),
        "core.stall_lq_share": ratio(L["stall_lq"], L["core_ticks"]),
        "core.stall_sq_share": ratio(L["stall_sq"], L["core_ticks"]),
        "core.stall_other_share": ratio(L["stall_other"], L["core_ticks"]),
        "core.useful_ratio": ratio(instr, instr + L["squashed"]),
        "core.ooo_commit_share": ratio(L["ooo_commits"], instr),
        "core.lockdowns_set": L["lockdowns"],
        "core.ldt_exports": L["ldt_exports"],
        "coh.l1.handle_s": L["l1_handle_s"],
        "coh.l1.handle_calls": L["l1_calls"],
        "coh.llc.handle_s": L["llc_handle_s"],
        "coh.llc.handle_calls": L["llc_calls"],
        "coh.handle_share": ratio(handle_all, t["wall_s"]),
        "l1.miss_ratio": ratio(L["l1_misses"], L["l1_accesses"]),
        "l1.tearoff_retries": L["tearoff_retries"],
        "l1.nacks_sent": L["nacks"],
        "llc.wb_entries": L["wb_entries"],
        "llc.wb_encounters": L["wb_encounters"],
        "llc.deferrals": L["deferrals"],
        "net.messages_per_kinst": ratio(L["messages"], kinst),
        "net.flit_hops_per_kinst": ratio(L["flit_hops"], kinst),
        "net.link_wait_cycles": L["link_wait"],
        "net.ooo_delivered": L["ooo_delivered"],
        "net.ns_per_msg": micro["net_ns_per_msg"],
        "sim.events": L["events"],
        "sim.events_per_kinst": ratio(L["events"], kinst),
        "sim.ns_per_event": micro["sim_ns_per_event"],
        "checker.events": L["checker_events"],
        "checker.replay_s": L["checker_replay_s"],
        "checker.ns_per_event": ratio(L["checker_replay_s"] * 1e9,
                                      L["checker_events"]),
        "checker.violations": L["checker_violations"],
        "shard.speedup": speedup,
        "shard.efficiency": speedup / 2,
        "trace.overhead_ratio": ratio(ratio(instr, t["wall_s"]),
                                      ratio(u["instructions"], u["wall_s"])),
    }


def host_info(exe):
    info = {"cpu": platform.processor() or "unknown",
            "nproc": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info.update(harness_json(exe, ["info"], "harness info"))
    # Only this checkout's own repository counts; an exported tree
    # reports "unknown".
    info["commit"] = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=HERE,
            text=True, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, timeout=10).stdout.split()
        if len(out) == 2 and os.path.samefile(out[0], os.path.dirname(HERE)):
            info["commit"] = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return info


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 = the profiles' own seeds, "
                         "checked against pins.json")
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scale, two profiles, no pins")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    exe = build()
    host = host_info(exe)
    pins = None
    if args.seed == 0 and not args.smoke:
        with open(os.path.join(HERE, "pins.json")) as f:
            pins = json.load(f)["workloads"][args.workload]

    t0 = time.monotonic()
    if args.trace:
        untraced = run_round(exe, args)
        traced = run_round(exe, args, trace=True)
        alt = run_round(exe, args, shards=ALT_SHARDS[args.workload])
        rounds = [untraced, traced, alt]
        micro = harness_json(exe, ["micro"], "micro loops")
    else:
        rounds = []
        while True:
            start = time.monotonic()
            rounds.append(run_round(exe, args))
            now = time.monotonic()
            if now - t0 + (now - start) > args.seconds:
                break

    failures = judge(rounds, pins)
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    if args.trace:
        values = per_layer(untraced, traced, alt, micro)
        units = PER_LAYER
    else:
        values = end_to_end(rounds)
        units = END_TO_END
    attempted = sum(len(p["cells"]) for p in rounds)
    failed = sum(not c["ok"] for p in rounds for c in p["cells"])

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} measured={time.monotonic() - t0:.1f}s "
          f"pins={'checked' if pins is not None else 'skipped'}")
    print(json.dumps({"host": host}))
    print(json.dumps({"fingerprints": {c["name"]: c["fp"]
                                       for c in rounds[0]["cells"]}}))
    for name, v in values.items():
        print(f"{name:28s} {v:16.6f} {units[name]}")
    print(f"{'fail_ratio':28s} {failed / attempted:16.6f} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))


if __name__ == "__main__":
    main()
