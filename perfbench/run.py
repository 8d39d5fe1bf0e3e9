"""Benchmark for grw: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One invocation is one fresh single-threaded process running one workload
as a closed loop: every call starts after the previous one returned.  The
run repeats whole rounds of the workload's fixed work until ``--seconds``
have passed (at least one round), checks the first round's outputs with
``checks.py`` and the later rounds against the first, and prints one JSON
object as its last line of output.  It exits non-zero if a check fails.

The host this runs on drifts in speed by ±15-20 % over tens of seconds,
so the run interleaves a fixed reference slice (pure-Python integer
arithmetic, no ``grw`` code, no GC-tracked allocations) every quarter
second, and reports times in units of the slices taken in the same
round (``wall_ref``, ``item_ref_*``).  Slice time, and the time of items
cut by their deadline, is excluded from every timing.

With ``--trace 1`` rounds alternate untraced and traced; the traced ones
record a span per call at the public boundaries listed in ``tracing.py``
and give the per-layer metrics; traced against untraced wall time, both
in slice units, gives the overhead.
Spans are written to ``perfbench/out/spans-<workload>.bin``.
"""

from __future__ import annotations

import argparse
import importlib
import gc
import json
import resource
import signal
import statistics
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SLICE_EVERY_S = 0.25
SLICE_STEPS = 70_000
SLICE_NOMINAL_S = 0.010  # converts slice units to reference seconds
SETUP_REPEATS = 11

# The reference slice is a linear congruential loop of pure integer
# arithmetic: it holds no table, allocates no GC-tracked objects and uses
# no grw.  Slices that also walk a shuffled 4 MB table sometimes tracked
# the host better (``slicetrial.py``), but their time depends on what the
# program leaves in the caches: with one, traced rounds read 1-14 % faster
# than untraced ones.  A reference must not move when the program does.
def reference_slice() -> int:
    x = 1
    for _ in range(SLICE_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFF
    return x


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline()


class Timer:
    """Times items, runs reference slices between them, and counts
    attempted and failed items.  ``item`` returns None for a failed item."""

    def __init__(self):
        self.items = array("d")
        self.slices = array("d")
        self.slice_total = 0.0
        self.failed_total = 0.0
        self.attempted = 0
        self.failed = 0
        self.on_slice = None
        self._next_slice = time.perf_counter() + SLICE_EVERY_S

    def maybe_slice(self) -> None:
        t0 = time.perf_counter()
        if t0 < self._next_slice:
            return
        reference_slice()
        t1 = time.perf_counter()
        self.slices.append(t1 - t0)
        self.slice_total += t1 - t0
        if self.on_slice is not None:
            self.on_slice(t0, t1)
        self._next_slice = t1 + SLICE_EVERY_S

    def item(self, fn, *args, deadline: float | None = None):
        """Time one call.  ``deadline`` is in reference-slice units, so the
        time a failing item burns follows the host's speed like the rest;
        that time goes to ``failed_total``, not to any item."""
        self.maybe_slice()
        self.attempted += 1
        if deadline is not None:
            if not self.slices:
                self._next_slice = 0.0
                self.maybe_slice()
            deadline *= statistics.median(self.slices)
        t0 = time.perf_counter()
        try:
            if deadline is not None:
                signal.setitimer(signal.ITIMER_REAL, deadline)
            result = fn(*args)
            if deadline is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            self.failed += 1
            self.failed_total += time.perf_counter() - t0
            return None
        finally:
            if deadline is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
        self.items.append(time.perf_counter() - t0)
        return result


def import_grw():
    """Import grw from this checkout's ``src`` and nowhere else."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "grw" or n.startswith("grw.")]:
        del sys.modules[name]
    grw = importlib.import_module("grw")
    for sub in ("core", "match", "rules", "chem", "network", "demos"):
        importlib.import_module("grw." + sub)
    if not str(Path(grw.__file__).resolve()).startswith(src):
        raise ImportError(f"grw imported from {grw.__file__}, not from {src}")
    return grw


def load_assets(grw) -> dict:
    from importlib import resources
    chem = grw.chem

    def text(name: str) -> str:
        return (resources.files("grw") / "assets" / name).read_text()

    def chem_rule(name: str):
        violations, rule = chem.check_chem_rule(grw.rules.parse_gml_rule(text(name)))
        if violations:
            raise SystemExit(f"{name}: {[str(v) for v in violations]}")
        return rule

    return {
        "formose_rules": [chem_rule(n) for n in ("keto_enol.gml", "keto_enol_reverse.gml",
                                                 "aldol.gml", "aldol_reverse.gml")],
        "energy_model": chem.load_energy_model(text("energy_demo.tsv")),
        "da_rule": chem_rule("diels_alder.gml"),
        "life_rules": [grw.rules.parse_gml_rule(text(n)) for n in
                       ("life_birth.gml", "life_death.gml", "life_survival.gml")],
        "ydelta_rules": [grw.rules.parse_gml_rule(text(n)) for n in
                         ("wye_to_delta.gml", "delta_to_wye.gml")],
    }


def setup() -> tuple[float, float, object, dict]:
    """Import grw and parse every asset the workloads use, several times
    over, each time followed by a reference slice.  Returns the median
    set-up time in reference seconds (set-up over the slice after it,
    times ``SLICE_NOMINAL_S``), the median raw time, and the last module
    and assets.  Raw set-up medians moved by 30 % between processes
    started seconds apart on one host; the slice ratio moved by 6 %."""
    ratios, raw = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        grw = import_grw()
        assets = load_assets(grw)
        t1 = time.perf_counter()
        reference_slice()
        t2 = time.perf_counter()
        raw.append(t1 - t0)
        ratios.append((t1 - t0) / (t2 - t1))
    return statistics.median(ratios) * SLICE_NOMINAL_S, statistics.median(raw), grw, assets


def percentile(values, q: float) -> float:
    s = sorted(values)
    if not s:
        return 0.0
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_rounds(workload, timer: Timer, seconds: float, tracer) -> dict:
    """Whole rounds until ``seconds`` have passed; with a tracer, odd
    rounds are traced.  Returns the first round's output and per-round
    records."""
    rounds = []
    first = first_sig = None
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            span_lo = tracer.mark()
        items_lo, slices_lo = len(timer.items), len(timer.slices)
        excluded = timer.slice_total + timer.failed_total
        t0 = time.perf_counter()
        out = workload.round(timer)
        wall = time.perf_counter() - t0 - (timer.slice_total + timer.failed_total - excluded)
        rec = {"wall": wall, "traced": traced, "items": (items_lo, len(timer.items)),
               "slices": (slices_lo, len(timer.slices))}
        if traced:
            tracer.remove()
            rec["spans"] = (span_lo, tracer.mark())
            rec["counts"] = workload.counts(out)
        if first is None:
            first, first_sig = out, workload.signature(out)
        elif workload.signature(out) != first_sig:
            raise SystemExit(f"round {len(rounds)} output differs from round 0")
        del out
        rounds.append(rec)
        done = time.perf_counter() - started >= seconds
        if done and (tracer is None or any(r["traced"] for r in rounds)):
            return {"first": first, "rounds": rounds}


def round_slice(timer: Timer, r: dict) -> float:
    """Median reference slice taken during round ``r``; the run's median
    if the round took none."""
    lo, hi = r["slices"]
    return statistics.median(timer.slices[lo:hi] if hi > lo else timer.slices)


def end_to_end(timer: Timer, rounds: list, setup_s: float, tail_pct: int, rss_mb: float) -> dict:
    """Each round's wall time and items are divided by the median of the
    reference slices taken during that round, then pooled."""
    walls, walls_ref, items_ref = [], [], []
    for r in rounds:
        ref = round_slice(timer, r)
        walls.append(r["wall"])
        walls_ref.append(r["wall"] / ref)
        lo, hi = r["items"]
        items_ref.extend(t / ref for t in timer.items[lo:hi])
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref": (statistics.median(walls_ref), "ref"),
        "item_ref_p50": (percentile(items_ref, 50), "ref"),
        "item_ref_tail": (percentile(items_ref, tail_pct), "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, {
        "wall_s": statistics.median(walls),
        "item_ms_p50": percentile(timer.items, 50) * 1e3,
        "item_ms_tail": percentile(timer.items, tail_pct) * 1e3,
        "slice_ms": statistics.median(timer.slices) * 1e3,
    }


def per_layer(tracer, timer: Timer, rounds: list, tail_pct: int) -> dict:
    """Per traced round: calls and seconds per layer, duration percentiles
    (the tail at the workload's ``tail_pct``), apply outcomes, and the
    tracing overhead from wall times in slice units."""
    import tracing
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    n = len(traced)
    merged = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
              for name in tracing.NAMES}
    for r in traced:
        lo, hi = r["spans"]
        st = tracing.layer_stats(tracer.name_of, tracer.parent, tracer.start, tracer.end, lo, hi)
        for name, s in st.items():
            m = merged[name]
            m["calls"] += s["calls"]
            m["s"] += s["s"]
            m["self_s"] += s["self_s"]
            m["durations"].extend(s["durations"])
    out: dict = {}
    for name in tracing.METRIC_LAYERS:
        m = merged[name]
        for field in tracing.METRIC_LAYERS[name]:
            if field == "calls":
                out[f"{name}.calls"] = (m["calls"] / n, "count")
            elif field == "s":
                out[f"{name}.s"] = (m["s"] / n, "s")
            elif field == "self_s":
                out[f"{name}.self_s"] = (m["self_s"] / n, "s")
            elif field == "ms_p50":
                out[f"{name}.ms_p50"] = (percentile(m["durations"], 50) * 1e3, "ms")
            elif field == "ms_tail":
                out[f"{name}.ms_tail"] = (percentile(m["durations"], tail_pct) * 1e3, "ms")
    applies = merged["rules.apply"]["calls"]
    reactions = sum(r["counts"][0] for r in traced)
    new_mols = sum(r["counts"][1] for r in traced)
    network_applies = applies if merged["network.expand"]["calls"] else 0
    out["network.reactions_per_apply"] = (reactions / network_applies if network_applies else 0.0,
                                          "ratio")
    out["network.new_molecules_per_apply"] = (new_mols / network_applies if network_applies
                                              else 0.0, "ratio")
    # Round 0 warms caches and is left out of the untraced side when a
    # later untraced round exists.
    untraced = untraced[1:] or untraced
    t_wall = statistics.median(r["wall"] / round_slice(timer, r) for r in traced)
    u_wall = statistics.median(r["wall"] / round_slice(timer, r) for r in untraced)
    out["trace.wall_ref"] = (t_wall, "ref")
    out["trace.untraced_wall_ref"] = (u_wall, "ref")
    out["trace.overhead_ref"] = (t_wall - u_wall, "ref")
    out["trace.overhead_pct"] = (100.0 * (t_wall - u_wall) / u_wall, "%")
    out["trace.spans"] = (sum(r["spans"][1] - r["spans"][0] for r in traced) / n, "count")
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setup_s, setup_raw_s, grw, assets = setup()
    sys.path.insert(0, str(HERE))
    import workloads
    import tracing
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](grw, assets, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)

    timer = Timer()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        slice_id = tracing.NAMES.index(tracing.SLICE)
        timer.on_slice = lambda t0, t1: tracer.record(slice_id, t0, t1)
    result = run_rounds(workload, timer, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = workload.check(result["first"])
    rounds = result["rounds"]
    if args.trace:
        metrics = per_layer(tracer, timer, rounds, workload.tail_pct)
        raw = {"traced_wall_s": statistics.median(r["wall"] for r in rounds if r["traced"]),
               "untraced_wall_s": statistics.median(r["wall"] for r in rounds if not r["traced"])}
        (HERE / "out").mkdir(exist_ok=True)
        tracer.write(str(HERE / "out" / f"spans-{args.workload}.bin"))
    else:
        metrics, raw = end_to_end(timer, rounds, setup_s, workload.tail_pct, rss_mb)
        raw["setup_raw_s"] = setup_raw_s
    for p in problems[:20]:
        print("CHECK FAILED:", p, file=sys.stderr)
    raw_text = " ".join(f"{k}={v:.6g}" for k, v in raw.items())
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)} items={len(timer.items)}"
          f" slices={len(timer.slices)} tail=p{workload.tail_pct} problems={len(problems)}"
          f" {raw_text}")
    print(json.dumps({
        "correct": not problems,
        "attempted": timer.attempted,
        "failed": timer.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.stdout.flush()
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
