"""Time one set-up of a workload's program in this fresh interpreter.

    python3 perfbench/coldstart.py WORKLOAD PAYLOAD.npz

Run from the repository root; ``harness.setup_samples`` starts it once per
sample.  The payload (plain arrays) is loaded before the clock starts and
nothing of ``repro`` is imported before it, so the sample holds the
imports, construction, first-call loads and warm-up work of a real start.
The last stdout line is ``{"setup_s": seconds}``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    workload, path = (argv if argv is not None else sys.argv[1:])[:2]
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]
    warnings.simplefilter("ignore")
    import numpy as np

    mod = importlib.import_module(workload)
    with np.load(path) as data:
        payload = {key: data[key] for key in data.files}
    loaded = [name for name in sys.modules
              if name == "repro" or name.startswith("repro.")]
    if loaded:
        raise RuntimeError(f"repro imported before the clock: {loaded[:3]}")
    start = time.perf_counter()
    system = mod.setup(payload)
    setup_s = time.perf_counter() - start
    mod.close(system)
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
