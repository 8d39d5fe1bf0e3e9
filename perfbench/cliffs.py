"""Times the canon workload's symmetric and cliff tiers operation by
operation, each under a time limit of ``LIMIT_S``.

    python3 perfbench/cliffs.py

Prints one line per molecule: canonical SMILES and canonical key time of
the filled molecule, or ">30 s" where the limit cut the call.
"""

from __future__ import annotations

import random
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

LIMIT_S = 30.0


def timed(fn, limit: float) -> str:
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        fn()
    except run.Deadline:
        return f">{limit:g} s"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return f"{(time.perf_counter() - t0) * 1e3:.1f} ms"


def main() -> int:
    grw = run.import_grw()
    signal.signal(signal.SIGALRM, run._on_alarm)
    rng = random.Random(0)
    molecules = [(name, gen.write_smiles(m, rng)) for name, m in gen.symmetric_tier().items()]
    molecules += list(gen.CLIFF_TIER.items())
    print(f"{'molecule':26s} {'atoms':>5s} {'canonical_smiles':>18s} {'canonical_key':>16s}")
    for name, smiles in molecules:
        m = workloads.prepared(grw, smiles)
        s = timed(lambda: grw.chem.canonical_smiles(m), LIMIT_S)
        k = timed(lambda: grw.match.canonical_key(m.graph), LIMIT_S)
        print(f"{name:26s} {m.graph.node_count:5d} {s:>18s} {k:>16s}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
