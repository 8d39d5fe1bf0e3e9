"""Labeled graphs, GML graph I/O, unions, components."""

from __future__ import annotations

import json
from random import Random

import pytest

from grw import (GmlError, GraphPool, LabeledGraph, connected_components,
                 disjoint_union, parse_gml_graph, write_gml_graph)
from grw.chem import fill_hydrogens, parse_smiles
from grw.core import tokenize_gml

import gml_corpus
from conftest import assert_same_as_rebuild
from oracles import random_graph

GML_CORPUS = json.loads(gml_corpus.CORPUS.read_text())["entries"]

TRIANGLE = LabeledGraph.from_parts(
    ["A", "B", "C"], [(0, 1, "x"), (1, 2, "y"), (0, 2, "z")])


class TestLabeledGraph:
    def test_basic_accessors(self):
        g = TRIANGLE
        assert g.node_count == 3
        assert g.edge_count == 3
        assert [g.label(i) for i in range(3)] == ["A", "B", "C"]
        assert g.edge_label(2, 0) == "z"
        assert g.edge_label(0, 2) == "z"
        assert g.edge_label(1, 1) is None
        assert g.has_edge(1, 2) and not g.has_edge(1, 1)
        assert g.degree(0) == 2
        assert dict(g.neighbors(1)) == {0: "x", 2: "y"}

    def test_edge_queries_outside_the_graph(self):
        # A negative or too-large id names no node; it must not wrap
        # around to another node's edges (node -1 would be node 2).
        g = TRIANGLE
        n = g.node_count
        assert not g.has_edge(-1, 0) and not g.has_edge(-1, 1)
        assert not g.has_edge(n, 0) and not g.has_edge(0, n)
        assert g.edge_label(n, 0) is None
        assert g.edge_label(-1, 1) is None and g.edge_label(1, -1) is None

    def test_from_parts_rejects_bad_input(self):
        cases = [
            (["A", ""], [], None, "node 1 has an empty or non-string label"),
            (["A", 7], [], None, "node 1 has an empty or non-string label"),
            (["A"], [(0, 1, "x")], None, "edge (0, 1) references an unknown node"),
            (["A", "B"], [(-1, 1, "x")], None, "edge (-1, 1) references an unknown node"),
            (["A"], [(0, 0, "x")], None, "self-loop on node 0 is not allowed"),
            (["A", "B"], [(0, 1, "")], None, "edge (0, 1) has an empty label"),
            (["A", "B"], [(0, 1, "x"), (1, 0, "y")], None, "duplicate edge (1, 0)"),
            (["A", "B"], [(0, 1, "x")], [5], "ext_ids length does not match node count"),
        ]
        for labels, edges, ext_ids, message in cases:
            with pytest.raises(ValueError) as err:
                LabeledGraph.from_parts(labels, edges, ext_ids)
            assert str(err.value) == message

    def test_from_parts_sorts_edges_and_neighbours(self):
        g = LabeledGraph.from_parts(["A", "B", "C", "D"],
                                    [(3, 0, "a"), (2, 1, "b"), (0, 2, "c"), (1, 0, "d")])
        assert list(g.edges()) == [(0, 1, "d"), (0, 2, "c"), (0, 3, "a"), (1, 2, "b")]
        assert [list(g.neighbors(v)) for v in g.nodes()] == [[1, 2, 3], [0, 2], [0, 1], [0]]

    def test_with_labels_is_functional(self):
        g = TRIANGLE.with_labels({0: "Q"})
        assert g.label(0) == "Q"
        assert TRIANGLE.label(0) == "A"
        assert list(g.edges()) == list(TRIANGLE.edges())

    @pytest.mark.parametrize("changes, message", [
        ({0: ""}, "node 0 has an empty or non-string label"),
        ({3: "Q"}, "node 3 is not in the graph"),
        ({-1: "Q"}, "node -1 is not in the graph"),
    ])
    def test_with_labels_rejects_bad_changes(self, changes, message):
        with pytest.raises(ValueError) as err:
            TRIANGLE.with_labels(changes)
        assert str(err.value) == message

    def test_with_labels_matches_a_rebuild(self):
        rng = Random(11)
        for _ in range(25):
            r = random_graph(rng, 8, ["A", "B"], ["-", "="], edge_p=0.4)
            g = LabeledGraph.from_parts(r.node_labels, list(r.edges()),
                                        [10 * v + 10 for v in r.nodes()])
            changes = {v: rng.choice(["A", "B", "Q"]) for v in g.nodes() if rng.random() < 0.4}
            h = g.with_labels(changes)
            assert_same_as_rebuild(h, g.ext_ids)
            assert [h.label(v) for v in h.nodes()] == \
                [changes.get(v, g.label(v)) for v in g.nodes()]


class TestGml:
    def test_parse_simple(self):
        g = parse_gml_graph("""
            graph [
              node [ id 10 label "C" ]
              node [ id 20 label "O" ]
              edge [ source 10 target 20 label "=" ]
            ]""")
        assert g.node_count == 2
        assert g.ext_ids == (10, 20)
        assert g.edge_label(0, 1) == "="

    def test_comments_and_whitespace(self):
        g = parse_gml_graph(
            'graph [ # header\n node [ id 1 label "A" ] # trailing\n ]')
        assert g.node_count == 1 and g.edge_count == 0

    @pytest.mark.parametrize("text, fragment", [
        ('graph [ node [ id 1 label "A" ] node [ id 1 label "B" ] ]',
         "duplicate"),
        ('graph [ node [ id 1 label "" ] ]', "empty"),
        ('graph [ edge [ source 1 target 2 label "-" ] ]', "undeclared"),
        ('graph [ node [ id 1 label "A" ] '
         'edge [ source 1 target 1 label "-" ] ]', "self-loop"),
        ('graph [ node [ id 1 label "A" ] node [ id 2 label "B" ] '
         'edge [ source 1 target 2 label "-" ] '
         'edge [ source 2 target 1 label "-" ] ]', "duplicate"),
        ('graph [ node [ id 1 label "A" ] ] leftover', "trailing"),
        ('node [ id 1 label "A" ]', "graph"),
        ('graph [ node [ id 1 ] ]', "label"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(GmlError) as err:
            parse_gml_graph(text)
        assert fragment in str(err.value)

    def test_tokens(self):
        toks = tokenize_gml('key_2 -12 7"s t"# c ]\n\t[ ]=<!>x1')
        assert [(t.kind, t.value, t.line, t.column) for t in toks] == [
            ("word", "key_2", 1, 1), ("int", "-12", 1, 7), ("int", "7", 1, 11),
            ("str", "s t", 1, 12), ("[", "[", 2, 2), ("]", "]", 2, 4),
            ("op", "=", 2, 5), ("op", "<", 2, 6), ("op", "!", 2, 7),
            ("op", ">", 2, 8), ("word", "x1", 2, 9)]

    @pytest.mark.parametrize("text, message", [
        ('graph [\n  node [ id 1 label "A ]\n]', "unterminated string (line 2, column 21)"),
        ('a "', "unterminated string (line 1, column 3)"),
        ("graph [ ]\n\t@", "unexpected character '@' (line 2, column 2)"),
        ("a - 1", "unexpected character '-' (line 1, column 3)"),
        ("a\r\n  \u00e9", "unexpected character '\u00e9' (line 2, column 3)"),
    ])
    def test_token_errors(self, text, message):
        with pytest.raises(GmlError) as err:
            tokenize_gml(text)
        assert str(err.value) == message

    def test_edge_may_precede_its_nodes(self):
        g = parse_gml_graph('graph [ edge [ source 2 target 1 label "-" ] '
                            'node [ id 1 label "A" ] node [ id 2 label "B" ] ]')
        assert g.ext_ids == (1, 2) and g.edges() == [(0, 1, "-")]

    @pytest.mark.parametrize("base", gml_corpus.base_names())
    def test_mutated_texts_keep_their_recorded_outcome(self, base):
        text = gml_corpus.base_text(base)
        entries = [e for e in GML_CORPUS if e["base"] == base]
        assert entries and entries[0]["edits"] == []
        for entry in entries:
            got = gml_corpus.outcome(base, gml_corpus.apply_edits(text, entry["edits"]))
            assert got == entry["outcome"], entry["edits"]

    def test_roundtrip_random_graphs(self):
        rng = Random(20260816)
        for _ in range(40):
            g = random_graph(rng, 8, ["A", "B", "C*"], ["-", "=", "w w"])
            back = parse_gml_graph(write_gml_graph(g))
            assert back.node_count == g.node_count
            assert list(back.edges()) == list(g.edges())
            assert all(back.label(i) == g.label(i)
                       for i in range(g.node_count))
            assert back.ext_ids == g.ext_ids

    def test_label_with_a_quote_is_refused_not_written(self):
        g = LabeledGraph.from_parts(['a"b', "B"], [(0, 1, "-")], ext_ids=[5, 9])
        with pytest.raises(ValueError, match=r"^node 5 has a label 'a\"b'"):
            write_gml_graph(g)

    def test_edge_label_with_a_newline_is_refused_not_written(self):
        g = LabeledGraph.from_parts(["A", "B"], [(0, 1, "-\n=")], ext_ids=[9, 5])
        with pytest.raises(ValueError, match=r"^edge \(5, 9\) has a label '-\\n='"):
            write_gml_graph(g)


class TestDisjointUnion:
    def test_empty_union(self):
        g, origin = disjoint_union([])
        assert g.node_count == 0 and g.edge_count == 0 and origin == ()

    def test_two_paths(self):
        p = LabeledGraph.from_parts(["A", "B", "C"],
                                    [(0, 1, "-"), (1, 2, "-")])
        g, origin = disjoint_union([p, p])
        assert g.node_count == 6 and g.edge_count == 4
        assert len(connected_components(g)) == 2
        assert origin == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))
        for v, (gi, orig) in enumerate(origin):
            assert g.label(v) == p.label(orig)
            assert g.degree(v) == p.degree(orig)

    def test_random_unions_match_a_rebuild(self):
        rng = Random(3)
        for _ in range(25):
            parts = [random_graph(rng, 6, ["A", "B"], ["-", "="], edge_p=0.4)
                     for _ in range(rng.randint(1, 3))]
            g, origin = disjoint_union(parts)
            assert_same_as_rebuild(g)
            assert g.edge_count == sum(p.edge_count for p in parts)
            for u, v, lbl in g.edges():
                (gu, ou), (gv, ov) = origin[u], origin[v]
                assert gu == gv and parts[gu].edge_label(ou, ov) == lbl

    def test_isoprene_plus_propene_is_22_atoms(self):
        iso = fill_hydrogens(parse_smiles("C=CC(C)=C")[0]).graph
        pro = fill_hydrogens(parse_smiles("C=CC")[0]).graph
        assert iso.node_count == 13 and pro.node_count == 9
        g, _ = disjoint_union([iso, pro])
        assert g.node_count == 22


class TestConnectedComponents:
    def test_empty(self):
        assert connected_components(LabeledGraph.from_parts([], [])) == []

    def test_path_is_one_component(self):
        p = LabeledGraph.from_parts(["A", "B", "C"],
                                    [(0, 1, "-"), (1, 2, "-")])
        comps = connected_components(p)
        assert len(comps) == 1
        assert comps[0][1] == (0, 1, 2)

    def test_two_component_pattern(self):
        # Shape of a two-fragment reaction pattern: a 4-chain plus a pair.
        g = LabeledGraph.from_parts(
            ["C"] * 6,
            [(0, 1, "="), (1, 2, "-"), (2, 3, "="), (4, 5, "=")])
        comps = connected_components(g)
        assert [ids for _, ids in comps] == [(0, 1, 2, 3), (4, 5)]

    def test_partition_property(self):
        rng = Random(7)
        for _ in range(25):
            g = random_graph(rng, 9, ["A", "B"], ["-"], edge_p=0.2)
            comps = connected_components(g)
            seen = [v for _, ids in comps for v in ids]
            assert sorted(seen) == list(range(g.node_count))
            assert len(set(seen)) == len(seen)
            for sub, ids in comps:
                assert sub.node_count == len(ids)
                for i, v in enumerate(ids):
                    assert sub.label(i) == g.label(v)
                assert_same_as_rebuild(sub)
            assert sum(sub.edge_count for sub, _ in comps) == g.edge_count

    def test_components_are_numbered_from_zero(self):
        g = parse_gml_graph("""
            graph [
              node [ id 10 label "A" ]
              node [ id 20 label "B" ]
              node [ id 30 label "C" ]
              edge [ source 10 target 20 label "-" ]
              edge [ source 20 target 30 label "=" ]
            ]""")
        ((whole, ids),) = connected_components(g)
        assert ids == (0, 1, 2) and whole.ext_ids == (0, 1, 2)
        assert whole == g and g.ext_ids == (10, 20, 30)
        assert_same_as_rebuild(whole)
        split = parse_gml_graph("""
            graph [
              node [ id 10 label "A" ]
              node [ id 20 label "B" ]
              node [ id 30 label "C" ]
              edge [ source 10 target 30 label "-" ]
            ]""")
        comps = connected_components(split)
        assert [(sub.ext_ids, ids) for sub, ids in comps] == [((0, 1), (0, 2)), ((0,), (1,))]


class TestGraphPool:
    def test_share_is_equal_with_same_ids_and_order(self):
        rng = Random(11)
        pool = GraphPool()
        for _ in range(25):
            g = random_graph(rng, 9, ["A", "B"], ["-", "="], edge_p=0.3)
            before = [list(g.neighbors(v).items()) for v in g.nodes()]
            shared = pool.share(g)
            assert shared == g and shared.ext_ids == g.ext_ids
            assert [list(shared.neighbors(v).items()) for v in shared.nodes()] == before
            assert [list(g.neighbors(v).items()) for v in g.nodes()] == before
            assert_same_as_rebuild(shared)

    def test_equal_rows_and_tuples_are_one_object(self):
        pool = GraphPool()
        # Node 1 of ``a`` and node 1 of ``b`` have the row {0: "-", 2: "="}.
        a = pool.share(LabeledGraph.from_parts(["A", "B", "C"], [(0, 1, "-"), (1, 2, "=")]))
        b = pool.share(LabeledGraph.from_parts(["A", "B", "C"],
                                               [(1, 0, "-"), (2, 1, "="), (0, 2, "-")]))
        assert a.neighbors(1) is b.neighbors(1)
        assert a.neighbors(0) is not b.neighbors(0)
        assert a.node_labels is b.node_labels and a.ext_ids is b.ext_ids

    def test_empty_row_and_empty_tuple_stay_apart(self):
        pool = GraphPool()
        empty = pool.share(LabeledGraph.from_parts([], []))
        lone = pool.share(LabeledGraph.from_parts(["A"], []))
        assert empty.node_labels == () and empty.ext_ids == ()
        assert lone.neighbors(0) == {} and lone.ext_ids == (0,)

    def test_declared_ids_are_kept(self):
        g = parse_gml_graph('''graph [ node [ id 7 label "A" ] node [ id 3 label "B" ]
                               edge [ source 7 target 3 label "-" ] ]''')
        shared = GraphPool().share(g)
        assert shared.ext_ids == (7, 3) and write_gml_graph(shared) == write_gml_graph(g)
