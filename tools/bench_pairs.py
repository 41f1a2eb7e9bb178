"""Run perfbench/run.py on two checkouts in alternating pairs and record them.

Run from the repository root; ``summary`` reads the bounds in BENCHMARK.json.

    python3 tools/bench_pairs.py run --parent DIR --change DIR --workload span \
        --seeds 1 2 3 --out BENCH_8.json [--trace 1] [--note "machine"]
    python3 tools/bench_pairs.py summary BENCH_8.json

Pair k runs the parent first when k is even and the change first when k is
odd.  Each run's final JSON line is appended to the output file, with its
seed, workload, side and place in the pair, as soon as the run ends.
``summary`` prints each side's median and quartiles per end-to-end metric,
the pairs the change won, and whether the parent's spread exceeds the bound.
Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_pairs(args):
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"runs": []}
    if args.note:
        doc["machine"] = args.note
    for k, seed in enumerate(args.seeds):
        for place, side in enumerate(("parent", "change") if k % 2 == 0 else ("change", "parent")):
            cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                   "--seed", str(seed), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=getattr(args, side), capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            doc["runs"].append({"workload": args.workload, "seed": seed, "trace": args.trace,
                                "side": side, "place": place, "returncode": proc.returncode,
                                "result": result})
            out.write_text(json.dumps(doc, indent=1) + "\n")
            print(args.workload, seed, side, "ok" if result else "FAILED", flush=True)


def summary(args):
    doc = json.loads(Path(args.file).read_text())
    bounds = json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]
    runs = [r for r in doc["runs"] if r["trace"] == 0 and r["result"]]
    for workload in sorted({r["workload"] for r in runs}):
        by = {(r["seed"], r["side"]): r["result"] for r in runs if r["workload"] == workload}
        seeds = sorted({seed for seed, _ in by if (seed, "parent") in by and (seed, "change") in by})
        failed = [sum(by[seed, side]["failed"] for seed in seeds) for side in ("parent", "change")]
        print("%s: %d pairs, failed ops parent %d, change %d" % (workload, len(seeds), *failed))
        for spec in bounds if seeds else []:
            name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
            value = {key: result["metrics"][name]["value"] for key, result in by.items()}
            sides = {s: sorted(value[seed, s] for seed in seeds) for s in ("parent", "change")}
            q = {s: statistics.quantiles(v, n=4) if len(v) > 1 else v * 3 for s, v in sides.items()}
            wins = sum(sign * (value[seed, "change"] - value[seed, "parent"]) < 0 for seed in seeds)
            med = {s: statistics.median(v) for s, v in sides.items()}
            spread = (q["parent"][2] - q["parent"][0]) / med["parent"]
            print("  %-12s parent %9.4g [%.4g, %.4g]  change %9.4g [%.4g, %.4g]  %+6.1f%%"
                  "  wins %d/%d  parent IQR/median %.3f%s" % (
                      name, med["parent"], q["parent"][0], q["parent"][2], med["change"],
                      q["change"][0], q["change"][2], 100 * (med["change"] / med["parent"] - 1),
                      wins, len(seeds), spread,
                      "  (wider than bound %.2f)" % spec["bound"] if spread > spec["bound"] else ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--note")
    p.set_defaults(func=run_pairs)
    p = sub.add_parser("summary")
    p.add_argument("file")
    p.set_defaults(func=summary)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
