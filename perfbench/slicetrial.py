"""Compares candidate reference slices by how well they follow the host's
speed from one process to the next.

    python3 perfbench/slicetrial.py

Starts ``PROCESSES`` fresh processes one after another.  Each expands
formose to iteration 5 six times, times every candidate slice five times
after each expansion, and reports the medians.  The spread over processes
((Q3 - Q1) / median) of the expansion time is printed raw and in units of
each candidate; a smaller spread means the candidate follows the host
more closely.  Candidates: ``run.reference_slice`` (integer arithmetic),
a walk over a shuffled 4 MB int array, and a mix of the two with about
70 % of its time in arithmetic.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

PROCESSES = 12
EXPANSIONS = 6


TABLE = array("q", range(1 << 19))
random.Random(1).shuffle(TABLE)


def arith(steps: int) -> int:
    x = 1
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFF
    return x


def walk(steps: int) -> int:
    x = 1
    for _ in range(steps):
        x = TABLE[(x * 1103515245 + 12345) & 0x7FFFF]
    return x


CANDIDATES = {"arith": run.reference_slice, "walk": lambda: walk(21_000),
              "mix": lambda: (arith(50_000), walk(15_000))}


def timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def child() -> None:
    grw = run.import_grw()
    assets = run.load_assets(grw)
    seeds = [workloads.prepared(grw, s) for s in ("OCC=O", "C=O")]
    cfg = grw.network.ExpansionConfig(iterations=5, max_atoms=None,
                                      energy_model=assets["energy_model"])
    samples: dict[str, list[float]] = {"expand": [], **{name: [] for name in CANDIDATES}}
    for _ in range(EXPANSIONS):
        samples["expand"].append(timed(grw.network.expand, seeds, assets["formose_rules"], cfg))
        for name, fn in CANDIDATES.items():
            samples[name].append(statistics.median(timed(fn) for _ in range(5)))
    print(json.dumps({k: statistics.median(v) for k, v in samples.items()}))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    rows = []
    for _ in range(PROCESSES):
        proc = subprocess.run([sys.executable, __file__, "--child"], capture_output=True,
                              text=True, check=True)
        rows.append(json.loads(proc.stdout.splitlines()[-1]))
        print(" ".join(f"{k}={v * 1e3:.2f}ms" for k, v in rows[-1].items()), flush=True)
    print("spread over processes: raw", f"{spread([r['expand'] for r in rows]):.3f}",
          " ".join(f"{name}={spread([r['expand'] / r[name] for r in rows]):.3f}"
                   for name in CANDIDATES))
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
        sys.exit(0)
    sys.exit(main())
