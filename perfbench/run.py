"""Run one workload of the invhom benchmark and print its metrics.

    python3 perfbench/run.py --workload span --seed 1 --seconds 30 --trace 0

One process, one thread, one client: ops run back to back (a closed loop).
The seeded batch of ops repeats while another whole batch fits in
``--seconds``, and at least three times; every output is checked.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A traced run also runs one batch with op spans and then
replays each op layer by layer; its spans go to ``perfbench/out/``.

``python3 perfbench/run.py --write-benchmark-json`` rewrites
BENCHMARK.json from the tables below.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import PER_LAYER, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = [
    ("span", "term_pairs", "prod/expand commands via cli.main: small products, a 30-100-term tail and 128-512-letter factors; time is in words.diamond and algebra.diamond_alg"),
    ("census", "candidates", "order-3 census raw and up to isomorphism plus an order-4 lawful stream: scan, law checks, canonical_form; never calls words or algebra"),
    ("models", "words", "check, eval, assignments, verifiers and extend on stored order 2-4 targets: words as enumeration and fold, finite, universal; 1500+ letter words fail today"),
]

# (metric, unit, better, regression bound as a share of the parent's median)
# Timings get the widest bound allowed.  On the shared 2-vCPU VM the baseline
# was taken on, the same census batch took 15 s in one run and 25 s in
# another.  Such slow spells outlast a run, so no statistic taken within one
# run removes them.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p99_ms", "ms", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
# A census batch takes 15-26 s, so with MIN_BATCHES a census run measures
# 48-74 s whatever --seconds says.  30 s for the other two workloads keeps
# 22 runs of each workload, and 4 more, within an hour.
RUN_SECONDS = 30
MIN_BATCHES = 3
SETUP_FIRST = 4
SETUP_INTERVAL = 1.0


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, _, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def import_program():
    """Import invhom from this checkout's source tree, and nowhere else."""
    if not (SRC / "invhom" / "__init__.py").is_file():
        sys.exit("perfbench: no program source at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import invhom

    if Path(invhom.__file__).resolve().parent != SRC / "invhom":
        sys.exit("perfbench: imported invhom from %s" % invhom.__file__)


class SetupClock:
    """Times ``import invhom`` plus the workload's program-side preparation
    in fresh interpreters.

    A few samples come before the measured batches, and one more at each op
    boundary once ``SETUP_INTERVAL`` seconds have passed since the last, so
    the samples span the whole run as the batch times do.  ``value()`` is
    their median.  The first interpreter writes the bytecode caches and is
    not recorded.
    """

    def __init__(self, workload):
        self.code = "\n".join(
            [
                "import json, sys, time",
                "from pathlib import Path",
                "sys.path.insert(0, %r)" % str(SRC),
                "docs = [json.loads(Path(p).read_text()) for p in %r]" % workload.files,
                "t0 = time.perf_counter()",
                workload.prep,
                "print(time.perf_counter() - t0)",
            ]
        )
        self.times = []
        self.due = 0.0
        self.sample(record=False)
        for _ in range(SETUP_FIRST):
            self.sample()

    def sample(self, record=True):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", self.code],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode:
            sys.exit("perfbench: setup failed:\n" + proc.stderr)
        if record:
            self.times.append(float(proc.stdout.split()[-1]))
        self.due = perf_counter() + SETUP_INTERVAL

    def tick(self):
        """Take a sample if one is due; return the seconds spent on it."""
        start = perf_counter()
        if start < self.due:
            return 0.0
        self.sample()
        return perf_counter() - start

    def value(self):
        return statistics.median(self.times)


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    k = max(0, math.ceil(p / 100 * len(sorted_values)) - 1)
    return sorted_values[k]


class Raised:
    """An op that raised, kept without its traceback so a batch does not
    hold the failed call's frames alive."""

    def __init__(self, exc):
        self.name = type(exc).__name__


class Outcomes:
    """Checks outputs, once per op: a repeat that equals an output already
    judged correct is correct."""

    _UNSET = object()

    def __init__(self, ops):
        self.ops = ops
        self.good = [self._UNSET] * len(ops)
        self.attempted = self.failed = self.wrong = 0
        self.errors = Counter()

    def judge(self, outs):
        """Count a batch of outputs; return the work of the ops that ran."""
        work = 0
        for i, (op, out) in enumerate(zip(self.ops, outs)):
            self.attempted += 1
            if isinstance(out, Raised):
                self.failed += 1
                self.errors[out.name] += 1
                continue
            work += op.work
            if self.good[i] is not self._UNSET and out == self.good[i]:
                continue
            if op.check(out):
                self.good[i] = out
            else:
                self.failed += 1
                self.wrong += 1
                self.errors["wrong output"] += 1
        return work


def run_batch(ops, latencies, pause=lambda: 0.0):
    """Run the ops once.  ``pause()`` runs after each op; the seconds it
    returns are left out of the batch time."""
    outs = []
    paused = 0.0
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception as e:  # counted as a failed op, never fatal
            out = Raised(e)
        latencies.append(perf_counter() - t0)
        outs.append(out)
        paused += pause()
    return perf_counter() - start - paused, outs


def measure(ops, seconds, outcomes, pause):
    """Repeat the batch while another whole batch fits in ``seconds``, and
    at least ``MIN_BATCHES`` times."""
    walls, latencies, work = [], [], 0
    while True:
        gc.collect()
        wall, outs = run_batch(ops, latencies, pause)
        walls.append(wall)
        work += outcomes.judge(outs)
        if len(walls) >= MIN_BATCHES and sum(walls) + wall > seconds:
            return walls, latencies, work


def traced_batch(ops, outcomes):
    """One batch with a span per op, then each op replayed layer by layer."""
    tracer = Tracer()
    sids, outs = [], []
    gc.collect()
    start = perf_counter()
    for i, op in enumerate(ops):
        sids.append(len(tracer.spans))
        try:
            out = tracer.call(op.name, None, i, op.run, n=op.n, key=op.key)[1]
        except Exception as e:  # counted as a failed op, never fatal
            out = Raised(e)
        outs.append(out)
    wall = perf_counter() - start
    outcomes.judge(outs)
    for i, op in enumerate(ops):
        op.replay(tracer, sids[i], i)
    return wall, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[n for n, _, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        text = json.dumps(benchmark_json(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    import_program()
    import workloads

    result = run(workloads.WORKLOADS[args.workload](args.seed), args.seconds, args.trace, args.seed)
    print(json.dumps(result))
    return 0


def run(workload, seconds, trace, seed, report=print):
    """Measure one workload; print the report and return the result object."""
    setup = SetupClock(workload)
    ops = workload.prepare()
    if len(ops) > 20:
        run_batch(ops[:20], [])  # warm-up, unrecorded
    outcomes = Outcomes(ops)
    walls, latencies, work = measure(ops, seconds, outcomes, setup.tick)
    lat = sorted(latencies)
    metrics = {
        "setup_s": setup.value(),
        "wall_s": statistics.fmean(walls),
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_p99_ms": percentile(lat, 99) * 1e3,
        "work_per_s": work / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = {n: u for n, u, _, _ in END_TO_END}
    unit_name = {n: w for n, w, _ in WORKLOADS}[workload.name]
    report(
        "%s seed %d: %d batch(es) of %d ops, %d latency samples, %.2f s measured, %d setup samples"
        % (workload.name, seed, len(walls), len(ops), len(lat), sum(walls), len(setup.times))
    )
    aliases = {"work_per_s": "%s_per_s" % unit_name, "op_p50_ms": "op_p50_ms", "op_p99_ms": "op_p99_ms"}
    for name, value in metrics.items():
        alias = "  (%s.%s)" % (workload.name, aliases[name]) if name in aliases else ""
        report("  %-14s %14.6g %s%s" % (name, value, units[name], alias))
    samples = {}
    for i, name in workload.per_op_names.items():
        samples.setdefault(name, []).extend(latencies[i :: len(ops)])
    report("  batch times    " + " ".join("%.4g" % w for w in walls) + " s")
    for name, values in samples.items():
        report("  %-22s %10.6g s  (median of %d)" % (name, statistics.median(values), len(values)))
    error_frac = outcomes.failed / outcomes.attempted
    detail = ", ".join("%s: %d" % kv for kv in sorted(outcomes.errors.items()))
    report(
        "  %-14s %14.6g   (%d of %d ops%s)"
        % ("error_frac", error_frac, outcomes.failed, outcomes.attempted, "; " + detail if detail else "")
    )
    if trace:
        traced_wall, tracer = traced_batch(ops, outcomes)
        overhead = traced_wall - metrics["wall_s"]
        metrics = layer_metrics(tracer, overhead)
        out = HERE / "out" / ("trace-%s-%d.json" % (workload.name, seed))
        tracer.write(out, workload=workload.name, seed=seed, traced_wall_s=traced_wall)
        report("traced batch %.3f s, %d spans written to %s" % (traced_wall, len(tracer.spans), out))
        units = {n: u for n, u, _, _ in PER_LAYER}
        for name, value in metrics.items():
            report("  %-42s %14.6g %s" % (name, value, units[name]))
    return {
        "correct": outcomes.wrong == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
