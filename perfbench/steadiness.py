"""Repeat the benchmark over seeds and summarise how steady it is.

    python3 perfbench/steadiness.py --workload loop --seeds 1-10 \
        [--seconds 30] [--trace 0] [--label first] [--out DIR]

Run from the repository root.  Each seed is one ``run.py`` process, run
one after another.  The summary gives, per metric, every value, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median``, and is written as JSON to
``perfbench/steadiness/<workload>-trace<t>-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


#: Detail fields kept per run: the tail's percentile and n, every set-up
#: sample, each pass's wall time, the serve process's CPU share, and the
#: traced run's work counts.
_KEPT = ("latency_tail", "setup_samples_s", "pass_walls_s", "wall_s",
         "process_cpu_ratio", "untraced", "traced")


def _seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(runs):
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        metrics[name] = {
            "values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--label", default="run")
    parser.add_argument("--out", default=os.path.join(HERE, "steadiness"))
    args = parser.parse_args(argv)
    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["detail"] = json.loads(lines[-2])["detail"]
        runs.append(result)
        print(json.dumps({"seed": seed, "correct": result["correct"],
                          "metrics": {k: round(v["value"], 4) for k, v
                                      in result["metrics"].items()}}),
              flush=True)
    summary = {"workload": args.workload, "seconds": args.seconds,
               "trace": args.trace, "label": args.label,
               "seeds": _seeds(args.seeds),
               "metrics": summarise(runs),
               "runs": [{"seed": r["seed"], "correct": r["correct"],
                         "attempted": r["attempted"], "failed": r["failed"],
                         "metrics": {k: v["value"]
                                     for k, v in r["metrics"].items()},
                         **{key: r["detail"][key] for key in _KEPT
                            if key in r["detail"]}}
                        for r in runs]}
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(
        args.out, f"{args.workload}-trace{args.trace}-{args.label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
        handle.write("\n")
    for name, m in summary["metrics"].items():
        print(f"{name:32s} median {m['median']:12.4f}  "
              f"spread {m['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
