"""Steadiness runs: one benchmark run per seed, per workload, and the
median, quartiles and spread ((Q3 - Q1) / median) of every metric.

    python3 perfbench/steady.py --workloads formose canon --seeds 1-10 [--label set1]

Runs are sequential, each in its own untraced process of ``run_seconds``
from ``BENCHMARK.json``.  Results are printed as a table and saved to
``perfbench/out/steady-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    # The "# ..." line before it carries the raw (unnormalised) figures.
    raw = {}
    for tok in lines[-2].split() if len(lines) > 1 else []:
        key, _, value = tok.partition("=")
        try:
            raw[key] = float(value)
        except ValueError:
            pass
    result["raw"] = raw
    return result


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--label", default="latest")
    args = ap.parse_args(argv)

    report = {}
    for w in args.workloads:
        runs = []
        for s in seeds(args.seeds):
            r = run_one(w, s)
            runs.append({"seed": s, **r})
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{w} seed={s} correct={r['correct']} failed={r['failed']}/{r['attempted']} {vals}",
                  flush=True)
        stats = {k: summary([r["metrics"][k]["value"] for r in runs]) for k in runs[0]["metrics"]}
        for k in ("wall_s", "item_ms_p50", "item_ms_tail", "setup_raw_s", "slice_ms"):
            if all(k in r["raw"] for r in runs):
                stats["raw." + k] = summary([r["raw"][k] for r in runs])
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        report[w] = {"runs": runs, "stats": stats, "failed_shares": shares}
        print(f"== {w}: failed share(s) {shares}")
        for k, st in stats.items():
            print(f"   {k:24s} median {st['median']:12.5g}  q1 {st['q1']:12.5g}"
                  f"  q3 {st['q3']:12.5g}  spread {st['spread']:.4f}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"steady-{args.label}.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
