"""Spans at the public boundaries of ``grw``, recorded from outside.

Modules bind imported names at import time (``network`` holds its own
reference to ``canonical_smiles``, ``demos`` to ``rules.apply``), so a
wrapper must replace every module attribute that refers to the original
function, not just the defining one.  :class:`Tracer` does that on
:meth:`install` and restores the originals on :meth:`remove`.

A span is (name, parent span, start, end); spans live in flat arrays while
the run lasts and are written out once at the end.  Self time is a span's
duration minus the durations of its direct children, which is exact here
because the program is single-threaded and spans nest.

Run ``python3 perfbench/tracing.py FILE`` to print per-layer totals from
a written span file.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (layer name, module, attribute); ``LabeledGraph.from_parts`` is a
# classmethod and is handled separately.
BOUNDARIES = [
    ("chem.parse_smiles", "grw.chem.smiles", "parse_smiles"),
    ("chem.fill_hydrogens", "grw.chem.molecule", "fill_hydrogens"),
    ("chem.sanity_check", "grw.chem.molecule", "sanity_check"),
    ("chem.perceive_aromaticity", "grw.chem.aromatic", "perceive_aromaticity"),
    ("chem.canonical_smiles", "grw.chem.smiles", "canonical_smiles"),
    ("chem.estimate_energy", "grw.chem.energy", "estimate_energy"),
    ("match.find_monomorphisms", "grw.match", "find_monomorphisms"),
    ("match.are_isomorphic", "grw.match", "are_isomorphic"),
    ("match.canonical_key", "grw.match", "canonical_key"),
    ("rules.apply", "grw.rules", "apply"),
    ("rules.apply_all", "grw.rules", "apply_all"),
    ("rules.explore", "grw.rules", "explore"),
    ("core.connected_components", "grw.core", "connected_components"),
    ("core.disjoint_union", "grw.core", "disjoint_union"),
    ("network.expand", "grw.network", "expand"),
    ("network.to_dot", "grw.network", "to_dot"),
    ("network.to_gml", "grw.network", "to_gml"),
    ("demos.life_step", "grw.demos", "life_step"),
    ("demos.solve_sudoku", "grw.demos", "solve_sudoku"),
]
FROM_PARTS = "core.from_parts"
SLICE = "bench.reference_slice"
NAMES = [b[0] for b in BOUNDARIES] + [FROM_PARTS, SLICE]

# The per-layer metrics reported from traced rounds, per layer.
METRIC_LAYERS = {
    "chem.canonical_smiles": ("calls", "s", "ms_p50", "ms_tail"),
    "match.canonical_key": ("calls", "s", "ms_p50", "ms_tail"),
    "chem.sanity_check": ("calls", "s"),
    "chem.perceive_aromaticity": ("calls", "s"),
    "rules.apply": ("calls", "s"),
    "core.from_parts": ("calls", "s"),
    "core.connected_components": ("calls", "s"),
    "core.disjoint_union": ("calls", "s"),
    "match.find_monomorphisms": ("calls", "s"),
    "chem.estimate_energy": ("calls", "s"),
    "match.are_isomorphic": ("calls", "s"),
    "rules.apply_all": ("calls", "s"),
    "rules.explore": ("s",),
    "demos.life_step": ("s",),
    "demos.solve_sudoku": ("s",),
    "chem.parse_smiles": ("s",),
    "chem.fill_hydrogens": ("s",),
    "network.expand": ("self_s",),
    "network.to_dot": ("s",),
    "network.to_gml": ("s",),
}


def _grw_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "grw" or name.startswith("grw."))]


def rebind(original, replacement) -> int:
    """Point every ``grw`` module attribute that is ``original`` at
    ``replacement``; returns how many bindings changed."""
    count = 0
    for mod in _grw_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


class Tracer:
    def __init__(self):
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._undo: list = []
        self.active = False

    def _wrap(self, name_id: int, fn):
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name_id, (name, module, attr) in enumerate(BOUNDARIES):
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name_id, original)
            if rebind(original, wrapper) == 0:
                raise RuntimeError(f"no binding found for {module}.{attr}")
            self._undo.append((original, wrapper))
        from grw.core import LabeledGraph
        cm = LabeledGraph.__dict__["from_parts"]
        LabeledGraph.from_parts = classmethod(self._wrap(NAMES.index(FROM_PARTS), cm.__func__))
        self._undo.append(("from_parts", cm))
        self.active = True

    def remove(self) -> None:
        from grw.core import LabeledGraph
        for original, wrapper in reversed(self._undo):
            if original == "from_parts":
                LabeledGraph.from_parts = wrapper
            else:
                rebind(wrapper, original)
        self._undo.clear()
        self.active = False

    def record(self, name_id: int, t0: float, t1: float) -> None:
        """A closed span measured by the caller, e.g. a reference slice."""
        if self.active:
            self.name_of.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(t0)
            self.end.append(t1)

    def mark(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """Header line of JSON, then the four arrays in native layout."""
        with open(path, "wb") as f:
            header = {"names": NAMES, "count": len(self.start),
                      "arrays": ["name:H", "parent:i", "start:d", "end:d"]}
            f.write((json.dumps(header) + "\n").encode())
            for a in (self.name_of, self.parent, self.start, self.end):
                a.tofile(f)


def layer_stats(name_of, parent, start, end, lo: int = 0, hi: int | None = None) -> dict:
    """Per layer: call count, total seconds, self seconds and the list of
    durations, over spans ``lo..hi``."""
    hi = len(start) if hi is None else hi
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            child[p - lo] += end[i] - start[i]
    stats = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []} for n in NAMES}
    for i in range(lo, hi):
        st = stats[NAMES[name_of[i]]]
        d = end[i] - start[i]
        st["calls"] += 1
        st["s"] += d
        st["self_s"] += d - child[i - lo]
        st["durations"].append(d)
    return stats


def read(path: str):
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["count"]
        out = []
        for code in ("H", "i", "d", "d"):
            a = array(code)
            a.fromfile(f, n)
            out.append(a)
    return header, out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 perfbench/tracing.py SPAN_FILE", file=sys.stderr)
        return 2
    header, arrays = read(argv[0])
    stats = layer_stats(*arrays)
    print(f"{'layer':32s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
    for name in header["names"]:
        st = stats[name]
        if st["calls"]:
            print(f"{name:32s} {st['calls']:9d} {st['s']:10.4f} {st['self_s']:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
