"""Benchmark entry point.

    python3 perfbench/run.py --workload {loop,serve} --seed N \
        --seconds S --trace {0,1}

Run from the repository root: the program under test is imported from
``src/``.  Inputs are generated from ``--seed`` before any timed phase.
With ``--trace 0`` the last stdout line is the end-to-end record; with
``--trace 1`` the run is split into an untraced half (counts, overhead
base) and a traced half (per-layer self times), and the last line holds
the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  The line before the result holds the run's detail
(tail percentile and sample count, failure reasons, set-up samples).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("loop", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from a repository root holding src/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    # Solver and legacy-API warnings go to stderr, never into the result.
    warnings.simplefilter("ignore")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    import harness
    import workloads

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    runner = workloads.traced if args.trace else workloads.timed
    values, tally, detail = runner(args.workload, args.seed, args.seconds,
                                   harness.load_reference(), list(units))
    detail.update({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace})
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 3
    harness.emit({name: values[name] for name in units}, units, tally,
                 detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
