"""Subgraph monomorphism search and matching constraints."""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from random import Random

import pytest

import grw.match
from grw import (Adjacency, LabeledGraph, NodeDegree, NodeLabel, NoEdge, Pattern,
                 are_isomorphic, check_constraints, disjoint_union,
                 find_monomorphisms)
from grw.chem import fill_hydrogens, parse_smiles

from oracles import (_constraint_ok, brute_force_monomorphisms,
                     random_constraints, random_graph)


def mol_graph(smiles: str) -> LabeledGraph:
    return fill_hydrogens(parse_smiles(smiles)[0]).graph


class TestBasics:
    def test_single_node_in_methane(self):
        pattern = LabeledGraph.from_parts(["C"], [])
        assert find_monomorphisms(pattern, mol_graph("C")) == [(0,)]

    def test_wildcard_single_node_matches_everything(self):
        host = LabeledGraph.from_parts(list("ABCDE"), [])
        p = Pattern(LabeledGraph.from_parts(["*"], []), wildcard="*")
        assert find_monomorphisms(p, host) == [(i,) for i in range(5)]

    def test_no_edge_constraint_blocks_bonded_pair(self):
        host = mol_graph("CC")  # ethane: the only two carbons are bonded
        p = Pattern(LabeledGraph.from_parts(["C", "C"], []),
                    constraints=[NoEdge(source=0, target=1)])
        assert find_monomorphisms(p, host) == []

    def test_empty_pattern_has_one_empty_match(self):
        host = mol_graph("CC")
        assert find_monomorphisms(LabeledGraph.from_parts([], []), host) == [()]

    def test_pattern_larger_than_host(self):
        p = LabeledGraph.from_parts(["C", "C"], [])
        assert find_monomorphisms(p, LabeledGraph.from_parts(["C"], [])) == []

    def test_determinism(self):
        rng = Random(99)
        host = random_graph(rng, 8, ["A", "B"], ["-", "="])
        p = random_graph(rng, 3, ["A", "B"], ["-", "="], min_nodes=1)
        first = find_monomorphisms(p, host)
        assert find_monomorphisms(p, host) == first

    def test_constraint_must_reference_existing_node(self):
        g = LabeledGraph.from_parts(["A"], [])
        with pytest.raises(ValueError):
            Pattern(g, constraints=[NodeLabel(node=3, op="=",
                                              labels=frozenset({"A"}))])

    def test_pattern_is_immutable(self):
        p = Pattern(LabeledGraph.from_parts(["A"], []),
                    constraints=[NodeDegree(node=0, op="=", count=0)])
        assert p.constraints == (NodeDegree(node=0, op="=", count=0),)
        with pytest.raises(FrozenInstanceError):
            p.constraints = ()

    def test_long_chain_into_itself(self):
        n = 1100
        chain = LabeledGraph.from_parts(["C"] * n, [(i, i + 1, "-") for i in range(n - 1)])
        assert find_monomorphisms(chain, chain) == [tuple(range(n)),
                                                    tuple(reversed(range(n)))]


class TestCounting:
    """The counting entry runs the search of :func:`find_monomorphisms`
    and returns the length of its list."""

    ETHANE = mol_graph("CC")

    @pytest.mark.parametrize("pattern, host, want", [
        (LabeledGraph.from_parts([], []), ETHANE, 1),
        (LabeledGraph.from_parts(["C", "C"], []), LabeledGraph.from_parts(["C"], []), 0),
        (LabeledGraph.from_parts(["N"], []), ETHANE, 0),
        (LabeledGraph.from_parts(["C", "N"], [(0, 1, "-")]), ETHANE, 0),
        (Pattern(LabeledGraph.from_parts(["*", "C"], [(0, 1, "-")]), wildcard="*"), ETHANE, 8),
        (Pattern(LabeledGraph.from_parts(["*"], []), wildcard="*"), ETHANE, 8),
    ], ids=["empty pattern", "larger than host", "absent root label",
            "absent label, two nodes", "wildcard root", "wildcard only"])
    def test_edge_cases(self, pattern, host, want):
        if isinstance(pattern, LabeledGraph):
            pattern = Pattern(pattern)
        matches = find_monomorphisms(pattern, host)
        assert matches == brute_force_monomorphisms(pattern, host)
        assert len(matches) == grw.match._count_monomorphisms(pattern, host) == want

    def test_wildcard_root_is_first_in_the_plan(self):
        p = Pattern(LabeledGraph.from_parts(["*", "C"], [(0, 1, "-")]), wildcard="*")
        assert [(s.node, s.label, s.anchor) for s in p._plan] == [(0, None, None), (1, "C", 0)]


class TestCheckConstraintsAgreement:
    """``check_constraints`` reads the predicates the search runs, one per
    step, whether a step completes no constraint, one or several."""

    # Searched in the order 1, 0, 2: the step of node 1 completes no
    # constraint, that of node 0 one and that of node 2 three.
    PATTERN = Pattern(LabeledGraph.from_parts(["A", "B", "A"], [(0, 1, "-"), (1, 2, "-")]),
                      [NodeDegree(0, ">", 1), NoEdge(0, 2),
                       Adjacency(2, "<", 3, frozenset({"B"})), NodeDegree(2, "!", 2)])

    def test_plan_shape(self):
        plan = self.PATTERN._plan
        assert [s.node for s in plan] == [1, 0, 2]
        assert [s.check is None for s in plan] == [True, False, False]

    def test_agrees_with_the_search(self):
        rng = Random(4711)
        bare = Pattern(self.PATTERN.graph)
        accepted = rejected = 0
        for _ in range(40):
            host = random_graph(rng, 9, ["A", "B"], ["-"], edge_p=0.4)
            images = brute_force_monomorphisms(bare, host)
            kept = [m for m in images if check_constraints(self.PATTERN, host, m)]
            assert kept == find_monomorphisms(self.PATTERN, host)
            accepted += len(kept)
            rejected += len(images) - len(kept)
        assert accepted >= 20 and rejected >= 20


# A centre "A" of degree 4: neighbours B, B, C, B over edges -, =, -, -.
STAR = LabeledGraph.from_parts(["A", "B", "B", "C", "B"],
                               [(0, 1, "-"), (0, 2, "="), (0, 3, "-"), (0, 4, "-")])
ADJACENCY_FILTERS = [
    (frozenset(), frozenset()),
    (frozenset({"*"}), frozenset()),
    (frozenset({"B", "*"}), frozenset({"="})),
    (frozenset(), frozenset({"*"})),
    (frozenset({"B", "C"}), frozenset()),
    (frozenset(), frozenset({"-", "="})),
    (frozenset({"B"}), frozenset({"-"})),
    (frozenset({"C"}), frozenset({"-", "="})),
]


class TestAdjacencyCount:
    """Counting stops once the result is decided; it must agree with a
    full count at, just below and just above the node's degree."""

    @pytest.mark.parametrize("node_labels, edge_labels", ADJACENCY_FILTERS)
    @pytest.mark.parametrize("count", [3, 4, 5])
    @pytest.mark.parametrize("op", "=!<>")
    def test_agrees_with_oracle(self, op, count, node_labels, edge_labels):
        c = Adjacency(node=0, op=op, count=count, node_labels=node_labels,
                      edge_labels=edge_labels)
        p = Pattern(LabeledGraph.from_parts(["A"], []), constraints=[c], wildcard="*")
        want = _constraint_ok(c, STAR, (0,), "*")
        assert check_constraints(p, STAR, (0,)) is want
        assert find_monomorphisms(p, STAR) == ([(0,)] if want else [])


class TestDielsAlderPattern:
    def test_four_matches_in_isoprene_propene(self, diels_alder_rule):
        host, _ = disjoint_union(
            [mol_graph("C=CC(C)=C"), mol_graph("C=CC")])
        pattern, _ = diels_alder_rule.left_pattern()
        matches = find_monomorphisms(pattern, host)
        assert len(matches) == 4
        assert matches == brute_force_monomorphisms(pattern, host)


class TestWildcardCounting:
    def test_isolated_wildcard_pattern_counts_arrangements(self):
        rng = Random(5)
        for _ in range(10):
            host = random_graph(rng, 7, ["A", "B", "C"], ["-"], min_nodes=1)
            n = host.node_count
            k = rng.randint(1, min(3, n))
            p = Pattern(LabeledGraph.from_parts(["*"] * k, []), wildcard="*")
            expected = 1
            for i in range(k):
                expected *= n - i
            assert len(find_monomorphisms(p, host)) == expected


class TestOracleEquivalence:
    def test_200_random_cases(self):
        rng = Random(20260816)
        node_labels = ["A", "B", "C"]
        edge_labels = ["-", "="]
        agreed_nonempty = 0
        for case in range(200):
            wildcard = "*" if rng.random() < 0.4 else None
            host = random_graph(rng, 8, node_labels, edge_labels, edge_p=0.5)
            pool = node_labels + (["*"] if wildcard else [])
            epool = edge_labels + (["*"] if wildcard else [])
            pat = random_graph(rng, 4, pool, epool, edge_p=0.5, min_nodes=1)
            cons = random_constraints(rng, pat, node_labels,
                                      edge_labels, wildcard)
            pattern = Pattern(pat, constraints=cons, wildcard=wildcard)
            # The second host reuses the plan compiled for the first.
            second = random_graph(rng, 8, node_labels, edge_labels, edge_p=0.5)
            for host in (host, second):
                got = find_monomorphisms(pattern, host)
                want = brute_force_monomorphisms(pattern, host)
                assert got == want, f"case {case}"
                if got:
                    agreed_nonempty += 1
        # The generator must actually exercise matching, not just misses.
        assert agreed_nonempty >= 20


class TestIsomorphism:
    def test_self(self):
        g = mol_graph("OCC=O")
        assert are_isomorphic(g, g)

    def test_permuted_copy(self):
        g = LabeledGraph.from_parts(
            ["A", "B", "C"], [(0, 1, "-"), (1, 2, "=")])
        h = LabeledGraph.from_parts(
            ["C", "A", "B"], [(1, 2, "-"), (2, 0, "=")])
        assert are_isomorphic(g, h)

    def test_path_vs_triangle(self):
        path = LabeledGraph.from_parts(["A"] * 3, [(0, 1, "-"), (1, 2, "-")])
        tri = LabeledGraph.from_parts(
            ["A"] * 3, [(0, 1, "-"), (1, 2, "-"), (0, 2, "-")])
        assert not are_isomorphic(path, tri)

    def test_label_sensitivity(self):
        g = LabeledGraph.from_parts(["A", "B"], [(0, 1, "-")])
        h = LabeledGraph.from_parts(["A", "A"], [(0, 1, "-")])
        assert not are_isomorphic(g, h)

    def test_long_chain_with_itself(self):
        chain = LabeledGraph.from_parts(["C"] * 1200, [(i, i + 1, "-") for i in range(1199)])
        assert are_isomorphic(chain, chain)

    def test_equal_graphs_need_no_key(self, monkeypatch):
        def refuse(g):
            raise AssertionError("equal graphs were keyed")
        monkeypatch.setattr(grw.match, "canonical_key", refuse)
        g = mol_graph("OCC=O")
        assert are_isomorphic(g, LabeledGraph.from_parts(g.node_labels, g.edges(),
                                                         ext_ids=[7] * g.node_count))
        with pytest.raises(AssertionError, match="keyed"):
            are_isomorphic(g, g.with_labels({0: "S"}))
