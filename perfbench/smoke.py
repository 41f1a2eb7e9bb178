"""Smoke tests for the benchmark harness, at tiny sizes.

    python3 perfbench/smoke.py

Every workload runs untraced and traced and prints every metric that
BENCHMARK.json names; corrupted outputs and a broken product both count as
failed ops; and without the program's source the benchmark exits non-zero
without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile

import run

run.import_program()

import invhom.algebra
import invhom.expressions
import invhom.words
import workloads


def expect(cond, what):
    if not cond:
        raise SystemExit("FAIL: " + what)
    print("ok  " + what)


def tiny(name, trace=0, corrupt=False):
    wl = workloads.WORKLOADS[name](7, tiny=True)
    if corrupt:
        make = wl.ops_from

        def corrupted(ns):
            ops = make(ns)
            for op in ops:
                op.run = lambda run=op.run: garble(run())
            return ops

        wl.ops_from = corrupted
    return run.run(wl, 0.01, trace, 7, report=lambda *a: None)


def garble(out):
    if isinstance(out, tuple):
        rc, text, err = out
        return rc, text + "garbled\n", err
    if isinstance(out, int):
        return out + 1
    return "garbled"


def main():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(manifest == run.benchmark_json(), "BENCHMARK.json matches the tables in run.py")
    e2e = {m["name"] for m in manifest["end_to_end"]}
    layers = {m["name"] for m in manifest["per_layer"]}

    for name in workloads.WORKLOADS:
        plain = tiny(name)
        traced = tiny(name, trace=1)
        expect(plain["correct"] and traced["correct"], "%s: every output correct" % name)
        expect(set(plain["metrics"]) == e2e, "%s: every end-to-end metric printed" % name)
        expect(
            all(v["value"] > 0 and math.isfinite(v["value"]) for v in plain["metrics"].values()),
            "%s: end-to-end metrics are positive" % name,
        )
        expect(set(traced["metrics"]) == layers, "%s: every per-layer metric printed" % name)
        expect(
            all(math.isfinite(v["value"]) for v in traced["metrics"].values()),
            "%s: per-layer metrics are finite" % name,
        )
        bad = tiny(name, corrupt=True)
        expect(
            not bad["correct"] and bad["failed"] == bad["attempted"],
            "%s: corrupted outputs all count as failed" % name,
        )

    saved = invhom.algebra.diamond, invhom.expressions.diamond
    invhom.algebra.diamond = invhom.expressions.diamond = invhom.words.concat
    try:
        broken = tiny("span")
    finally:
        invhom.algebra.diamond, invhom.expressions.diamond = saved
    expect(not broken["correct"] and broken["failed"] > 0, "span: a wrong product is caught")

    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, tmp + "/perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "span", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    expect(proc.returncode != 0 and not proc.stdout.strip(), "no program source: non-zero exit, no result")
    print("smoke: all passed")


if __name__ == "__main__":
    main()
