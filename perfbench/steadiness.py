#!/usr/bin/env python3
"""Steadiness report for the repo benchmark.

Runs workloads through perfbench/run.py and prints, per workload and
end-to-end metric, the median, quartiles, min/max and the spread
(interquartile range over the median) next to the metric's bound from
BENCHMARK.json, and the spread of the same figure before host-speed
rescaling (the run's "# wall" line; see README.md). Two modes:

  repeat  (default) every workload --runs times on each of two seeds
          (--seeds 1,2): the run-to-run noise of identical inputs.
  seeds   every workload once on each of --runs distinct seeds
          (1..runs): the spread across seeds that a bound must cover.

    python3 perfbench/steadiness.py [--mode repeat|seeds] [--runs N]
        [--seeds A,B] [--workloads serve,ingest] [--seconds S]
        [--raw out.json]

Runs are sequential; run nothing else on the machine meanwhile.
Quartiles are statistics.quantiles(values, n=4).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_wall(stdout):
    """The run's "# wall (not rescaled) k=v ..." figures, as a dict."""
    for line in stdout.split("\n"):
        if line.startswith("# wall "):
            return {k: float(v) for k, v in
                    (kv.split("=") for kv in line.split() if "=" in kv)}
    return {}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                      proc.returncode))
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    result["wall"] = parse_wall(proc.stdout)
    return result


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (
        med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--mode", choices=("repeat", "seeds"), default="repeat")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--raw", default="", help="also write every result here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])
    if args.mode == "repeat":
        groups = [(w, [int(s)] * args.runs) for w in workloads
                  for s in args.seeds.split(",")]
    else:
        groups = [(w, list(range(1, args.runs + 1))) for w in workloads]

    raw = []
    print("| workload | seeds | metric | median | q1 | q3 | min | max | "
          "spread | bound | wall spread |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for workload, seeds in groups:
        results = [run_once(workload, s, seconds) for s in seeds]
        raw.append({"workload": workload, "seeds": seeds, "results": results})
        label = (str(seeds[0]) + " x%d" % len(seeds)
                 if len(set(seeds)) == 1 else "%d..%d" % (seeds[0], seeds[-1]))
        for m in bench["end_to_end"]:
            st = summarize([r["metrics"][m["name"]]["value"] for r in results])
            walls = [r["wall"][m["name"]] for r in results
                     if m["name"] in r["wall"]]
            wall = ("%.3f" % summarize(walls)["spread"]
                    if len(walls) == len(results) else "")
            print("| %s | %s | %s | %.4g | %.4g | %.4g | %.4g | %.4g | "
                  "%.3f | %.2f | %s |" % (workload, label, m["name"],
                                          st["median"], st["q1"], st["q3"],
                                          st["min"], st["max"], st["spread"],
                                          m["bound"], wall))
        sys.stdout.flush()
        if args.raw:
            with open(args.raw, "w") as f:
                json.dump(raw, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
