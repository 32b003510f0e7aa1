"""Record the reference decisions the benchmark checks every unit against.

    python3 perfbench/record.py

Run from the repository root.  Serve queries are function-preserving
copies of fixed master instances, so one decision per master and threshold
variant covers every seed.  A loop chain's event pattern
fixes each event's decision (fine-tuning steps and monitored enlargements
stay safe, drift boxes are unsafe), so one string of letters (P proved,
V violated, U unknown), recorded on seed 0, covers every seed.  Writes
``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]) \
        .parse_args(argv)
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
    warnings.simplefilter("ignore")

    import gen
    import harness
    import loop
    from repro.api import VerificationEngine, VerifyConfig

    engine = VerificationEngine(VerifyConfig(workers=1))
    table = {"serve": {}}
    for master in gen.SERVE_MASTERS:
        base = gen.threshold_instance(master, gen.SERVE_POOL, 0.0)
        for k, offset in enumerate(gen.SERVE_OFFSETS):
            verdict = engine.verify(base.with_offset(offset).spec())
            table["serve"][f"{master}:{k}"] = harness.decision_of(
                verdict.holds)
    payload, inputs = loop.make_inputs(0, 0.0)
    table["loop"] = loop.decisions(loop.setup(payload), inputs)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
