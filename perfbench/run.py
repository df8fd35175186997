#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload pram-storm --seed 1 --seconds 10 --trace 0

Builds the measuring program (perfbench/, a Go module that uses the
repository's packages through a replace directive) into .bench_build/
at the repository root, then runs it in fresh processes:

  --trace 0  one untraced process; prints the end-to-end metrics named
             in BENCHMARK.json.
  --trace 1  an untraced process, then a traced one; prints the
             per-layer metrics named in BENCHMARK.json, including the
             tracing overhead (traced vs untraced ops/s), and writes
             the spans to .bench_build/spans-<workload>-seed<n>.tsv.gz.

Every process also runs the workload's correctness gate. The last line
of standard output is one JSON object: correct, attempted, failed and
metrics. The exit status is 0 only when the gate passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 80


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env():
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the checkout, and
    # never reach for the network.
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    try:
        p = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        die("build failed")


def run(workload, seed, seconds, mode, extra=()):
    """Runs the program once; returns its printed lines and result."""
    env = dict(os.environ)
    # The workloads are sized for two cores: one driver goroutine plus
    # the engine goroutines.
    env["GOMAXPROCS"] = "2"
    cmd = [BINARY, "-workload", workload, "-seed", str(seed),
           "-seconds", str(seconds), "-mode", mode] + list(extra)
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s run of %s did not finish within %d s" % (mode, workload, RUN_TIMEOUT_S))
    lines = p.stdout.splitlines()
    sys.stderr.write(p.stderr)
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("%s run of %s exited %d without a result" % (mode, workload, p.returncode))
    return lines[:-1], res


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be at least 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die("unknown workload %r" % args.workload)
    build()

    lines, res = run(args.workload, args.seed, args.seconds, "e2e")
    results = [res]
    print("== %s seed %d, untraced" % (args.workload, args.seed))
    print("\n".join(lines))
    metrics = dict(res["metrics"])
    wanted = bench["end_to_end"]
    if args.trace == 1:
        spans = os.path.join(BUILD, "spans-%s-seed%d.tsv.gz" % (args.workload, args.seed))
        lines, tres = run(args.workload, args.seed, args.seconds, "ledger", ["-spans", spans])
        results.append(tres)
        print("== %s seed %d, traced" % (args.workload, args.seed))
        print("\n".join(lines))
        metrics.update(tres["metrics"])
        if "trace.ops_per_s" in metrics and metrics["ops_per_s"]["value"] > 0:
            over = 1 - metrics["trace.ops_per_s"]["value"] / metrics["ops_per_s"]["value"]
            metrics["trace.overhead_share"] = {"value": over, "unit": "share"}
            print("%-44s %16.6f share  (traced %.0f vs untraced %.0f ops/s)" % (
                "trace.overhead_share", over, metrics["trace.ops_per_s"]["value"],
                metrics["ops_per_s"]["value"]))
        wanted = bench["per_layer"]

    correct = all(r["correct"] for r in results)
    out = {}
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            correct = False
            print("metric %s missing or not in %s" % (m["name"], m["unit"]))
            continue
        out[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    for r in results:
        if r.get("error"):
            print("GATE FAILED: " + r["error"])
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": out,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
