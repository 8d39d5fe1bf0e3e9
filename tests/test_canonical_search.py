"""The orbit-pruned canonical search behind canonical_key and canonical_smiles.

``data/canonical_strings.json`` holds strings recorded from the exhaustive
search that visited every individualization leaf.  Pruning may only skip
leaves equal to ones already seen, so every string must stay the same.
``data/twin_keys.json`` (written by ``twin_corpus.py``) holds strings
recorded before the search stopped branching on twins.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from random import Random

import pytest

from grw import LabeledGraph, canonical_key, disjoint_union, parse_gml_rule
from grw.chem import canonical_smiles, fill_hydrogens, parse_smiles
from grw import match
from grw.match import _refine, _refined, _serialize_by_rank, canonical_form
from grw.rules import explore

import oracles
import twin_corpus
from conftest import asset_text, permuted, prep

PINNED = json.loads((Path(__file__).parent / "data" / "canonical_strings.json").read_text())

CLIFFS = {
    "neopentane": "CC(C)(C)C",
    "hexamethylbenzene": "CC1=C(C)C(C)=C(C)C(C)=C1C",
    "tri-tert-butylmethane": "CC(C)(C)C(C(C)(C)C)C(C)(C)C",
    "tetra-tert-butylmethane": "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C",
}


def unlabeled(n: int, edges) -> LabeledGraph:
    return LabeledGraph.from_parts(["*"] * n, [(a, b, "*") for a, b in edges])


class TestPinnedStrings:
    @pytest.mark.parametrize("smiles", sorted(PINNED["assorted"]))
    def test_assorted(self, smiles):
        m = prep(smiles)
        assert [canonical_smiles(m), canonical_key(m.graph)] == PINNED["assorted"][smiles]

    @pytest.mark.parametrize("name", sorted(PINNED["symmetric"]))
    def test_symmetric(self, name):
        want = PINNED["symmetric"][name]
        m = prep(want["smiles_in"])
        assert canonical_smiles(m) == want["smiles"]
        assert canonical_key(m.graph) == want["key"]

    @pytest.mark.parametrize("name", sorted(PINNED["ydelta"]))
    def test_ydelta_graph_and_its_exploration(self, name):
        want = PINNED["ydelta"][name]
        g = unlabeled(want["nodes"], want["edges"])
        assert canonical_key(g) == want["key"]
        rules = [parse_gml_rule(asset_text(n))
                 for n in ("wye_to_delta.gml", "delta_to_wye.gml")]
        visited = explore([g], rules, "bfs", 2, key=canonical_key).visited
        assert sorted(visited) == want["explored"]


# Key calls of a depth-2 breadth-first Y-Δ exploration.  Symmetric matches
# give identical results (the six leaf orders of a claw, for one), and
# each is keyed once: keying every result took 433 calls on these seven
# graphs (K3,3 79, K4 37, Petersen 103, W5 49, W6 61, cube 79, prism 25).
YDELTA_KEY_CALLS = {"K3,3": 10, "K4": 6, "Petersen": 18, "W5": 9, "W6": 11,
                    "cube": 14, "prism": 5}


def test_ydelta_exploration_keys_each_distinct_result_once():
    rules = [parse_gml_rule(asset_text(n)) for n in ("wye_to_delta.gml", "delta_to_wye.gml")]
    calls = {}
    for name, want in PINNED["ydelta"].items():
        def counting_key(g, name=name):
            calls[name] = calls.get(name, 0) + 1
            return canonical_key(g)
        explore([unlabeled(want["nodes"], want["edges"])], rules, "bfs", 2, key=counting_key)
    assert calls == YDELTA_KEY_CALLS


class TestSymmetricMolecules:
    @pytest.mark.parametrize("name", sorted(CLIFFS))
    def test_cliff_molecule_invariant_under_permutation(self, name):
        m = prep(CLIFFS[name])
        smiles, key = canonical_smiles(m), canonical_key(m.graph)
        assert fill_hydrogens(parse_smiles(smiles)[0]).graph.node_count == m.graph.node_count
        rng = Random(name)
        for _ in range(5):
            p = permuted(m, rng)
            assert canonical_smiles(p) == smiles
            assert canonical_key(p.graph) == key

    @pytest.mark.parametrize("name", sorted(PINNED["cliff_smiles"]))
    def test_pinned_smiles(self, name):
        want = PINNED["cliff_smiles"][name]
        assert canonical_smiles(prep(want["smiles_in"])) == want["smiles"]


class TestRefinementBlindPairs:
    """Pairs whose vertices all look alike to colour refinement: only the
    individualization search can tell them apart."""

    def test_prism_vs_k33(self):
        prism = PINNED["ydelta"]["prism"]
        k33 = PINNED["ydelta"]["K3,3"]
        assert (canonical_key(unlabeled(prism["nodes"], prism["edges"]))
                != canonical_key(unlabeled(k33["nodes"], k33["edges"])))

    def test_hexagon_vs_two_triangles(self):
        c6 = unlabeled(6, [(i, (i + 1) % 6) for i in range(6)])
        triangles = unlabeled(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert canonical_key(c6) != canonical_key(triangles)

    def test_cyclohexane_vs_two_cyclopropanes(self):
        hexane = prep("C1CCCCC1").graph
        both, _ = disjoint_union([prep("C1CC1").graph, prep("C1CC1").graph])
        assert canonical_key(hexane) != canonical_key(both)


def test_refinement_keeps_the_reference_partition():
    """The root refinement and one individualization step after it give
    the colours and cells of ``oracles.reference_refine``, on seeded
    random graphs with up to three edge codes and random initial colours."""
    rng = Random(2214)
    for _ in range(10000):
        codes = [str(c) for c in range(rng.randint(1, 3))]
        g = oracles.random_graph(rng, 14, ["*"], codes, edge_p=rng.uniform(0.1, 0.6))
        rows = [g.neighbors(v) for v in g.nodes()]
        adj = [[(u, int(lbl)) for u, lbl in row.items()] for row in rows]
        colors = [rng.randrange(3) for _ in g.nodes()]
        nbrs, got, got_cells = _refined(rows, {lbl: int(lbl) for lbl in codes}, colors)
        _, want, want_cells = oracles.reference_refined(adj, colors)
        assert (got, got_cells) == (want, want_cells), (adj, colors)
        targets = [s for s, c in got_cells.items() if len(c) > 1]
        if not targets:
            continue
        target = rng.choice(targets)
        members = list(got_cells[target])
        v = rng.choice(members)
        rest = [w for w in members if w != v]
        for c, cells in ((got, got_cells), (want, want_cells)):
            cells[target], cells[target + 1] = [v], list(rest)
            for w in rest:
                c[w] = target + 1
        _refine(nbrs, got, got_cells, members)
        oracles.reference_refine(nbrs, want, want_cells, members)
        assert (got, got_cells) == (want, want_cells), (adj, colors, v)


def test_colours_are_read_by_order_only(monkeypatch):
    """``canonical_form`` serializes the same leaves, compares the same
    certificates and returns the same string whether the initial colours
    are integers, zero-padded strings of them or 1-tuples of them, on
    seeded random graphs and on the twin corpus, whose searches reach a
    second leaf and so compare certificates."""
    trace = []
    certificate = match._certificate
    def traced_certificate(*args):
        trace.append(certificate(*args))
        return trace[-1]
    monkeypatch.setattr(match, "_certificate", traced_certificate)
    rng = Random(2323)
    cases = []
    for _ in range(400):
        g = oracles.random_graph(rng, 12, ["*"], ["-", "=", "#"], edge_p=rng.uniform(0.1, 0.6))
        cases.append((g, [rng.randrange(4) for _ in g.nodes()]))
    for g in twin_corpus.key_cases().values():
        rank = {lbl: i for i, lbl in enumerate(sorted(set(g.node_labels)))}
        cases.append((g, [rank[lbl] for lbl in g.node_labels]))
    certified = 0
    for g, ints in cases:
        rows = [g.neighbors(v) for v in g.nodes()]
        codes = {lbl: i for i, lbl in enumerate(sorted({e for row in rows for e in row.values()}))}
        labels = [str(c) for c in ints]
        def serialize(rank):
            trace.append(tuple(rank))
            return _serialize_by_rank(labels, g.edges(), rank)
        runs = []
        for colors in (ints, [f"{c:03d}" for c in ints], [(c,) for c in ints]):
            trace.clear()
            runs.append((canonical_form(rows, codes, colors, serialize), list(trace)))
        assert runs[1] == runs[0] and runs[2] == runs[0], (g, ints)
        certified += any(isinstance(step, bytes) for step in runs[0][1])
    assert certified > 40


def test_twin_corpus_is_unchanged():
    want = json.loads(twin_corpus.TWIN_KEYS.read_text())
    assert twin_corpus.record() == want


class TestTwinCliffs:
    """400 interchangeable leaves.  A search that branches on them one by
    one takes about 13 s for each key (CPython 3.11, one core)."""

    def test_formyl_with_400_hydrogens(self):
        g = twin_corpus.formyl(400)
        t0 = time.perf_counter()
        key = canonical_key(g)
        assert time.perf_counter() - t0 < 1.0
        edges = [f"0-{r}:-" for r in range(1, 401)] + ["0-401:="]
        assert key == "402|" + ",".join(["C"] + ["H"] * 400 + ["O"]) + "|" + ";".join(edges)

    def test_star_with_400_leaves(self):
        g = twin_corpus.biclique(1, 400)
        t0 = time.perf_counter()
        key = canonical_key(g)
        assert time.perf_counter() - t0 < 1.0
        # A leaf's refinement signature is a prefix of the centre's, so
        # the leaves rank first.
        assert key == "401|" + ",".join(["*"] * 401) + "|" + ";".join(
            f"{r}-400:*" for r in range(400))


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_long_chain_needs_no_recursion_limit(monkeypatch):
    chain = prep("C" * 300)
    old = sys.getrecursionlimit()
    low = _stack_depth() + 100
    sys.setrecursionlimit(low)
    try:
        def refuse(limit):
            raise AssertionError("canonical_smiles changed the recursion limit")
        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        assert canonical_smiles(chain) == "C" * 300
        assert sys.getrecursionlimit() == low
    finally:
        monkeypatch.undo()
        sys.setrecursionlimit(old)
