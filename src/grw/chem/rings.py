"""Ring perception: enumeration of all simple cycles.

The algorithm progressively collapses a path graph: every vertex removal
concatenates the simple paths meeting at that vertex, and any path whose
two endpoints coincide is recorded as a cycle.  This yields *all* simple
cycles of the input graph, each exactly once.  An optional size bound
prunes paths (and cycles) already longer than the bound.

A vertex of degree at most 1 lies on no cycle.  Such vertices are peeled
first, repeatedly and in linear time, so a tree costs no collapse step
and the collapse runs on the 2-core alone.
"""

from __future__ import annotations

from ..core import LabeledGraph
from .molecule import Molecule


def _canonical_cycle(nodes: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate/orient a cycle: start at the smallest id, go toward its
    smaller neighbor."""
    k = len(nodes)
    i = nodes.index(min(nodes))
    prev_n, next_n = nodes[i - 1], nodes[(i + 1) % k]
    if next_n <= prev_n:
        return tuple(nodes[(i + j) % k] for j in range(k))
    return tuple(nodes[(i - j) % k] for j in range(k))


def all_cycles(g: LabeledGraph, max_size: int | None = None) -> list[tuple[int, ...]]:
    """All simple cycles of ``g`` in canonical rotation, sorted by
    (length, node tuple)."""
    # Path record: (a, b, nodes) with nodes running from a to b inclusive.
    paths: list[tuple[int, int, tuple[int, ...]]] = [
        (u, v, (u, v)) for u, v, _ in g.edges()]
    alive = set(g.nodes())
    incident: dict[int, set[int]] = {v: set() for v in alive}
    for idx, (a, b, _) in enumerate(paths):
        incident[a].add(idx)
        incident[b].add(idx)

    # Peel: removing a leaf may leave its neighbour a leaf in turn.
    leaves = [v for v in alive if len(incident[v]) <= 1]
    while leaves:
        x = leaves.pop()
        alive.remove(x)
        for idx in incident.pop(x):
            a, b, _ = paths[idx]
            y = b if a == x else a
            incident[y].discard(idx)
            if len(incident[y]) == 1:
                leaves.append(y)

    cycles: set[tuple[int, ...]] = set()

    def emit(nodes: tuple[int, ...]) -> None:
        if max_size is not None and len(nodes) > max_size:
            return
        cycles.add(_canonical_cycle(nodes))

    while alive:
        x = min(alive, key=lambda v: (len(incident[v]), v))
        mine = sorted(incident[x])
        # Orient each incident path to start at x.
        oriented: list[tuple[int, ...]] = []
        for idx in mine:
            a, b, nodes = paths[idx]
            oriented.append(nodes if a == x else nodes[::-1])
        for i in range(len(oriented)):
            pi = oriented[i]
            set_i = set(pi)
            for j in range(i + 1, len(oriented)):
                pj = oriented[j]
                end_i, end_j = pi[-1], pj[-1]
                shared = set_i.intersection(pj)
                if end_i == end_j:
                    if len(shared) == 2 and end_i in shared:
                        # Disjoint except for x and the common endpoint.
                        emit(pi[:-1] + pj[::-1][:-1])
                elif len(shared) == 1:
                    combined = pi[::-1] + pj[1:]
                    if max_size is None or len(combined) <= max_size:
                        idx_new = len(paths)
                        paths.append((end_i, end_j, combined))
                        incident[end_i].add(idx_new)
                        incident[end_j].add(idx_new)
        for idx in mine:
            a, b, _ = paths[idx]
            incident[a].discard(idx)
            incident[b].discard(idx)
        incident.pop(x, None)
        alive.remove(x)

    return sorted(cycles, key=lambda c: (len(c), c))


def perceive_rings(m: Molecule, max_size: int | None = None) -> list[tuple[int, ...]]:
    """All simple cycles of a molecule's graph (see :func:`all_cycles`)."""
    return all_cycles(m.graph, max_size)
