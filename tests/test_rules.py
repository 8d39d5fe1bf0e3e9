"""Rule parsing, double-pushout application, reversal, exploration."""

from __future__ import annotations

import re
import sys
from pathlib import Path
from random import Random

import pytest

import grw.rules
from grw import (ApplicationError, GmlError, LabeledGraph, NodeLabel, NoEdge,
                 RuleEdge, RuleError, RuleGraph, RuleNode, apply, apply_all,
                 are_isomorphic, canonical_key, disjoint_union, explore,
                 find_monomorphisms, parse_gml_rule, reverse_rule)
from grw.chem import fill_hydrogens, parse_smiles
from grw.rules import _CONSTRAINT_KINDS

from conftest import assert_same_as_rebuild, asset_text
from oracles import dpo_oracle, graph_as_sets, isomorphic

NODE_LABELS = ["A", "B", "C"]
EDGE_LABELS = ["-", "="]


def mol_graph(smiles: str) -> LabeledGraph:
    return fill_hydrogens(parse_smiles(smiles)[0]).graph


# ---------------------------------------------------------------------------
# Rule construction and GML parsing
# ---------------------------------------------------------------------------

class TestRuleGml:
    def test_sections_define_sides(self):
        rule = parse_gml_rule("""
            rule [
              ruleID "demo"
              left [
                node [ id 1 label "A" ]
                edge [ source 1 target 2 label "-" ]
              ]
              context [ node [ id 2 label "B" ] ]
              right [
                node [ id 3 label "C" ]
                edge [ source 2 target 3 label "=" ]
              ]
            ]""")
        assert rule.rule_id == "demo"
        sides = {nd.id: (nd.left, nd.right) for nd in rule.nodes}
        assert sides == {1: ("A", None), 2: ("B", "B"), 3: (None, "C")}
        esides = {(ed.source, ed.target): (ed.left, ed.right)
                  for ed in rule.edges}
        assert esides == {(1, 2): ("-", None), (2, 3): (None, "=")}

    def test_relabel_node(self):
        rule = parse_gml_rule("""
            rule [
              ruleID "flip"
              left [ node [ id 1 label "A" ] ]
              right [ node [ id 1 label "B" ] ]
            ]""")
        (nd,) = rule.nodes
        assert (nd.left, nd.right) == ("A", "B")

    def test_diels_alder_asset(self):
        rule = parse_gml_rule(asset_text("diels_alder.gml"))
        assert rule.rule_id == "Diels-Alder reaction"
        assert len(rule.nodes) == 6
        assert all(nd.left == nd.right for nd in rule.nodes)
        noedges = [c for c in rule.constraints if isinstance(c, NoEdge)]
        assert len(noedges) == 2
        # Bond changes: three double bonds become single, the central single
        # bond becomes double, and two new single bonds close the ring.
        changed = sorted(((ed.left, ed.right) for ed in rule.edges
                          if ed.left != ed.right), key=str)
        assert changed == sorted([("=", "-")] * 3 + [("-", "=")] +
                                 [(None, "-")] * 2, key=str)

    def test_comments_in_rule_files(self):
        rule = parse_gml_rule(
            'rule [ # a comment\n ruleID "c" '
            'context [ node [ id 1 label "A" ] ] # more\n ]')
        assert rule.rule_id == "c"

    def test_wildcard_declaration(self):
        rule = parse_gml_rule(asset_text("wye_to_delta.gml"))
        assert rule.wildcard == "*"
        pattern, _ = rule.left_pattern()
        assert pattern.wildcard == "*"

    def test_readme_names_only_rule_file_conditions(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert set(re.findall(r"`(constrain[A-Z]\w*)`", readme)) == set(_CONSTRAINT_KINDS)

    @pytest.mark.parametrize("sections, message, line, column", [
        (['  left [ node [ id 1 label "A" ] ]', "  left [ ]"],
         "duplicate section 'left'", 4, 3),
        (['  context [ node [ id 1 label "A" ] ]', "  right [",
          "    constrainAdj [ id 1 op = count 1 ]", "  ]"],
         "constraints are not allowed in the right section", 5, 5),
        (["  left [", '    node [ id 1 label "" ]', "  ]"],
         "node 1 has an empty label", 4, 5),
        (['  context [ node [ id 1 label "A" ] node [ id 2 label "A" ] ]',
          '  left [ edge [ source 1 target 2 label "" ] ]'],
         "edge (1, 2) has an empty label", 4, 10),
        (["  context [", '    node [ id 1 label "A" ]',
          '    edge [ source 1 target 1 label "-" ]', "  ]"],
         "self-loop on node 1", 5, 5),
        (['  context [ node [ id 1 label "A" ] ]', '  left [ node [ id 1 label "B" ] ]'],
         "node 1 already has a left label", 4, 10),
        (['  context [ node [ id 1 label "A" ] node [ id 2 label "A" ] ]', "  left [",
          '    edge [ source 1 target 2 label "-" ]',
          '    edge [ source 2 target 1 label "=" ]', "  ]"],
         "edge (2, 1) already has a left label", 6, 5),
        (["  middle [ ]"], "unknown rule section 'middle'", 3, 3),
        # Found only once the whole rule is read: reported at the end of
        # the text, here the line after the closing bracket.
        (["  context [", '    node [ id 1 label "A" ]',
          '    edge [ source 1 target 2 label "-" ]', "  ]"],
         "edge (1, 2) references undeclared node 2", 8, 1),
        # The rule builds its pattern, and so checks its constraints,
        # when it is built.
        (['  context [ node [ id 1 label "C" ] ]',
          '  left [ constrainNode [ id 1 op < nodeLabels [ label "C" ] ] ]'],
         "operator '<' is not valid for label constraints", 6, 1),
        (['  context [ node [ id 1 label "C" ] ]',
          "  left [ constrainNoEdge [ source 1 target 1 ] ]"],
         "NoEdge endpoints must be distinct", 6, 1),
        # A missing constraint key is named at the constraint's closing
        # bracket, once.
        (['  context [ node [ id 1 label "C" ] ]',
          "  left [ constrainNode [ id 1 op = ] ]"],
         "constrainNode is missing its 'nodeLabels' entry", 4, 36),
    ])
    def test_malformed_rule_position(self, sections, message, line, column):
        text = "\n".join(['rule [', '  ruleID "r"', *sections, "]", ""])
        with pytest.raises(GmlError) as err:
            parse_gml_rule(text)
        assert str(err.value) == f"{message} (line {line}, column {column})"
        assert (err.value.line, err.value.column) == (line, column)

    def test_trailing_content_position(self):
        with pytest.raises(GmlError) as err:
            parse_gml_rule('rule [\n  ruleID "r"\n]\n  rule')
        assert str(err.value) == "trailing content after rule block (line 4, column 3)"

    def test_constraint_the_pattern_refuses_fails_when_the_rule_is_built(self):
        with pytest.raises(ValueError, match="operator '<' is not valid"):
            RuleGraph("r", [RuleNode(1, "C", "C")], [],
                      [NodeLabel(1, "<", frozenset({"C"}))])

    def test_invalid_rules_rejected(self):
        with pytest.raises(RuleError):
            RuleGraph("dup", [RuleNode(1, "A", "A"), RuleNode(1, "B", "B")], [])
        with pytest.raises(RuleError):
            RuleGraph("edge-side", [RuleNode(1, "A", "A"), RuleNode(2, None, "B")],
                      [RuleEdge(1, 2, "-", "-")])
        with pytest.raises(RuleError):
            RuleGraph("empty-edge", [RuleNode(1, "A", "A"), RuleNode(2, "A", "A")],
                      [RuleEdge(1, 2, None, None)])
        with pytest.raises(RuleError):
            RuleGraph("ghost", [RuleNode(1, None, None)], [])


# ---------------------------------------------------------------------------
# Direct DPO spot checks
# ---------------------------------------------------------------------------

class TestApply:
    def test_delete_relabel_add(self):
        rule = parse_gml_rule("""
            rule [
              ruleID "demo"
              left [
                node [ id 1 label "A" ]
                edge [ source 1 target 2 label "-" ]
              ]
              context [ node [ id 2 label "B" ] ]
              right [
                node [ id 3 label "C" ]
                edge [ source 2 target 3 label "=" ]
              ]
            ]""")
        host = LabeledGraph.from_parts(["A", "B"], [(0, 1, "-")])
        (res,) = apply_all(rule, host)
        assert [res.graph.label(v) for v in res.graph.nodes()] == ["B", "C"]
        assert list(res.graph.edges()) == [(0, 1, "=")]
        assert res.fresh_nodes() == [1]

    def test_deletion_removes_incident_edges(self):
        rule = parse_gml_rule("""
            rule [ ruleID "kill" left [ node [ id 1 label "A" ] ] ]""")
        host = LabeledGraph.from_parts(
            ["A", "B", "B"], [(0, 1, "-"), (0, 2, "-"), (1, 2, "=")])
        res = apply(rule, host, (0,))
        assert res.graph.node_count == 2
        assert list(res.graph.edges()) == [(0, 1, "=")]

    def test_identity_rule_is_identity(self):
        rule = RuleGraph("id", [RuleNode(1, "A", "A"), RuleNode(2, "B", "B")],
                         [RuleEdge(1, 2, "-", "-")])
        host = LabeledGraph.from_parts(["A", "B", "C"],
                                       [(0, 1, "-"), (1, 2, "=")])
        res = apply(rule, host, (0, 1))
        assert graph_as_sets(res.graph) == graph_as_sets(host)

    def test_host_not_mutated_and_repeatable(self):
        rule = RuleGraph("mut", [RuleNode(1, "A", "B")], [])
        host = LabeledGraph.from_parts(["A"], [])
        before = graph_as_sets(host)
        r1 = apply(rule, host, (0,))
        r2 = apply(rule, host, (0,))
        assert graph_as_sets(host) == before
        assert graph_as_sets(r1.graph) == graph_as_sets(r2.graph)

    def test_edge_collision_is_an_error(self):
        rule = RuleGraph("form", [RuleNode(1, "A", "A"), RuleNode(2, "A", "A")],
                         [RuleEdge(1, 2, None, "-")],
                         constraints=())
        bonded = LabeledGraph.from_parts(["A", "A"], [(0, 1, "-")])
        with pytest.raises(ApplicationError) as err:
            apply(rule, bonded, (0, 1))
        assert "edge already exists" in str(err.value)
        apart = LabeledGraph.from_parts(["A", "A"], [])
        assert list(apply(rule, apart, (0, 1)).graph.edges()) == [(0, 1, "-")]

    def test_match_length_checked(self):
        rule = RuleGraph("len", [RuleNode(1, "A", "A")], [])
        host = LabeledGraph.from_parts(["A"], [])
        with pytest.raises(ApplicationError):
            apply(rule, host, (0, 0))

    @pytest.mark.parametrize("match, message", [
        ((0, 0), "not injective"),
        ((0, 5), "host node 5, which does not exist"),
        ((-1, 1), "host node -1, which does not exist"),
    ])
    def test_match_must_be_injective_and_in_range(self, match, message):
        rule = RuleGraph("bond", [RuleNode(1, "A", "A"), RuleNode(2, "A", "A")],
                         [RuleEdge(1, 2, None, "-")])
        host = LabeledGraph.from_parts(["A", "A", "A"], [])
        with pytest.raises(ApplicationError) as err:
            apply(rule, host, match)
        assert message in str(err.value)

    @pytest.mark.parametrize("labels, edges", [
        (["C", "C", "C"], []),              # no node label fits
        (["A", "C", "B"], []),              # the pattern edge is missing
        (["A", "C", "B"], [(0, 2, "=")]),   # the edge label differs
    ])
    def test_match_must_map_the_left_pattern(self, labels, edges):
        rule = RuleGraph("cut", [RuleNode(1, "A", "A"), RuleNode(2, "B", "B")],
                         [RuleEdge(1, 2, "-", None)])
        host = LabeledGraph.from_parts(labels, edges)
        with pytest.raises(ApplicationError) as err:
            apply(rule, host, (0, 2))
        assert "does not map the rule's left pattern" in str(err.value)
        fits = LabeledGraph.from_parts(["A", "C", "B"], [(0, 2, "-")])
        assert list(apply(rule, fits, (0, 2)).graph.edges()) == []

    def test_match_check_honours_the_wildcard(self):
        rule = RuleGraph("cut", [RuleNode(1, "*", "*"), RuleNode(2, "B", "B")],
                         [RuleEdge(1, 2, "*", None)], wildcard="*")
        host = LabeledGraph.from_parts(["Q", "B"], [(0, 1, "=")])
        res = apply(rule, host, (0, 1))
        assert res.graph.node_labels == ("Q", "B")
        assert list(res.graph.edges()) == []

    def test_apply_all_skips_colliding_matches(self, caplog):
        rule = RuleGraph("form", [RuleNode(1, "A", "A"), RuleNode(2, "A", "A")],
                         [RuleEdge(1, 2, None, "-")],
                         constraints=())
        host = LabeledGraph.from_parts(["A", "A", "A"], [(0, 1, "-")])
        with caplog.at_level("WARNING", logger="grw.rules"):
            results = apply_all(rule, host)
        # (0,1) and (1,0) collide with the existing bond; the other four
        # ordered pairs succeed.
        assert len(results) == 4
        assert {r.match for r in results} == {(0, 2), (1, 2), (2, 0), (2, 1)}
        assert sum("skipping match" in rec.message for rec in caplog.records) == 2

    def test_diels_alder_counts(self, diels_alder_rule):
        host, _ = disjoint_union([mol_graph("C=CC(C)=C"), mol_graph("C=CC")])
        results = apply_all(diels_alder_rule, host)
        assert len(results) == 4
        for res in results:
            assert res.graph.node_count == 22
            assert res.graph.edge_count == host.edge_count + 2
        distinct = apply_all(diels_alder_rule, host, dedup=True)
        assert len(distinct) == 2

    @pytest.mark.parametrize("smiles", ["C=CC(C)=C.C=CC", "C=CC=CC=CC=CC=C.C=CC.C=C"])
    def test_dedup_keeps_what_a_pairwise_scan_keeps(self, diels_alder_rule, smiles):
        host, _ = disjoint_union([fill_hydrogens(m).graph for m in parse_smiles(smiles)])
        kept: list = []
        for res in apply_all(diels_alder_rule, host):
            if not any(isomorphic(res.graph, k.graph) for k in kept):
                kept.append(res)
        distinct = apply_all(diels_alder_rule, host, dedup=True)
        assert [r.match for r in distinct] == [r.match for r in kept]
        assert [r.graph for r in distinct] == [r.graph for r in kept]

    def test_dedup_keys_each_distinct_graph_once(self, diels_alder_rule, monkeypatch):
        # A decapentaene, propene and ethylene: each diene/dienophile pair
        # matches in two orientations with the same result graph.
        host, _ = disjoint_union([mol_graph("C=CC=CC=CC=CC=C"), mol_graph("C=CC"),
                                  mol_graph("C=C")])
        every = apply_all(diels_alder_rule, host)
        keyed = []

        def counting_key(g):
            keyed.append(g)
            return canonical_key(g)
        monkeypatch.setattr(grw.rules, "canonical_key", counting_key)
        distinct = apply_all(diels_alder_rule, host, dedup=True)
        # Keying every result took 56 calls.
        assert (len(every), len(keyed), len(distinct)) == (56, 28, 12)
        assert len({(g.node_labels, tuple(g.edges())) for g in keyed}) == 28

    def test_reporter_can_stop(self, diels_alder_rule):
        host, _ = disjoint_union([mol_graph("C=CC(C)=C"), mol_graph("C=CC")])
        seen = []
        apply_all(diels_alder_rule, host,
                  reporter=lambda r: seen.append(r) is None and len(seen) < 2)
        assert len(seen) == 2


# ---------------------------------------------------------------------------
# Randomized DPO arithmetic against the set-equation oracle
# ---------------------------------------------------------------------------

def random_rule(rng: Random) -> RuleGraph:
    n = rng.randint(1, 5)
    nodes = []
    for i in range(n):
        kind = rng.choice(["ctx", "ctx", "relabel", "delete", "create"])
        if kind == "ctx":
            lbl = rng.choice(NODE_LABELS)
            nodes.append(RuleNode(i + 1, lbl, lbl))
        elif kind == "relabel":
            lbl = rng.choice(NODE_LABELS)
            other = rng.choice([x for x in NODE_LABELS if x != lbl])
            nodes.append(RuleNode(i + 1, lbl, other))
        elif kind == "delete":
            nodes.append(RuleNode(i + 1, rng.choice(NODE_LABELS), None))
        else:
            nodes.append(RuleNode(i + 1, None, rng.choice(NODE_LABELS)))
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() > 0.55:
                continue
            can_left = nodes[a].left is not None and nodes[b].left is not None
            can_right = nodes[a].right is not None and nodes[b].right is not None
            options = []
            lbl = rng.choice(EDGE_LABELS)
            other = rng.choice([x for x in EDGE_LABELS if x != lbl])
            if can_left:
                options.append((lbl, None))
            if can_right:
                options.append((None, lbl))
            if can_left and can_right:
                options.extend([(lbl, lbl), (lbl, other)])
            if not options:
                continue
            left, right = rng.choice(options)
            edges.append(RuleEdge(a + 1, b + 1, left, right))
    return RuleGraph(f"random-{rng.random():.6f}", nodes, edges)


def host_embedding_left(rule: RuleGraph, rng: Random) -> LabeledGraph:
    """A host that contains the rule's left side plus random clutter."""
    pattern, _ = rule.left_pattern()
    pg = pattern.graph
    labels = [pg.label(v) for v in pg.nodes()]
    edges = list(pg.edges())
    extra = rng.randint(0, 3)
    base = len(labels)
    for j in range(extra):
        labels.append(rng.choice(NODE_LABELS))
        for v in range(base + j):
            if rng.random() < 0.35:
                edges.append((v, base + j, rng.choice(EDGE_LABELS)))
    return LabeledGraph.from_parts(labels, edges)


class TestDpoArithmetic:
    def test_100_random_triples(self):
        rng = Random(41)
        checked = 0
        collisions = 0
        while checked < 100:
            rule = random_rule(rng)
            host = host_embedding_left(rule, rng)
            pattern, _ = rule.left_pattern()
            matches = find_monomorphisms(pattern, host)[:3]
            if not matches:
                continue
            for match in matches:
                want_nodes, want_edges, collided = dpo_oracle(rule, host, match)
                if collided:
                    with pytest.raises(ApplicationError):
                        apply(rule, host, match)
                    collisions += 1
                else:
                    res = apply(rule, host, match)
                    got_nodes = {res.node_origin[v]: res.graph.label(v)
                                 for v in res.graph.nodes()}
                    got_edges = {}
                    for u, v, lbl in res.graph.edges():
                        a, b = res.node_origin[u], res.node_origin[v]
                        got_edges[(min(a, b), max(a, b))] = lbl
                    assert got_nodes == want_nodes
                    assert got_edges == want_edges
                    assert_same_as_rebuild(res.graph)
                checked += 1
                if checked >= 100:
                    break
        assert collisions < 50  # most random cases must exercise the arithmetic

    def test_fresh_ids_follow_declaration_order(self):
        rule = RuleGraph("fresh", [
            RuleNode(1, "A", "A"),
            RuleNode(7, None, "X"),
            RuleNode(3, None, "Y"),
        ], [RuleEdge(1, 7, None, "-"), RuleEdge(1, 3, None, "-")])
        host = LabeledGraph.from_parts(["A", "B"], [(0, 1, "-")])
        res = apply(rule, host, (0,))
        assert res.node_origin == (0, 1, 2, 3)
        assert res.graph.label(2) == "X" and res.graph.label(3) == "Y"


# ---------------------------------------------------------------------------
# Reversal
# ---------------------------------------------------------------------------

class TestReverse:
    def test_reverse_swaps_sides_and_drops_constraints(self):
        rule = parse_gml_rule(asset_text("keto_enol.gml"))
        assert rule.constraints
        rev = reverse_rule(rule)
        assert not rev.constraints
        for fwd_n, rev_n in zip(rule.nodes, rev.nodes):
            assert (fwd_n.left, fwd_n.right) == (rev_n.right, rev_n.left)
        for fwd_e, rev_e in zip(rule.edges, rev.edges):
            assert (fwd_e.left, fwd_e.right) == (rev_e.right, rev_e.left)

    def test_double_reverse_restores_sides(self):
        rule = parse_gml_rule(asset_text("aldol.gml"))
        back = reverse_rule(reverse_rule(rule))
        for a, b in zip(rule.nodes, back.nodes):
            assert (a.id, a.left, a.right) == (b.id, b.left, b.right)
        for a, b in zip(rule.edges, back.edges):
            assert (a.source, a.target, a.left, a.right) == \
                (b.source, b.target, b.left, b.right)

    def test_reverse_id_annotation(self):
        rule = parse_gml_rule(asset_text("keto_enol.gml"))
        assert reverse_rule(rule, rule_id="back").rule_id == "back"

    def _image_match(self, rule, host, match, result):
        """Match of the reversed rule inside the rewrite result."""
        _, fwd_map = rule.left_pattern()
        img = {ext: match[pid] for ext, pid in fwd_map.items()}
        j = 0
        for nd in rule.nodes:
            if nd.left is None:
                img[nd.id] = host.node_count + j
                j += 1
        where = {origin: v for v, origin in enumerate(result.node_origin)}
        rev = reverse_rule(rule)
        _, rev_map = rev.left_pattern()
        rev_match = [0] * len(rev_map)
        for ext, pid in rev_map.items():
            rev_match[pid] = where[img[ext]]
        return rev, tuple(rev_match)

    def test_relabel_rules_round_trip(self, formose_rules):
        keto = formose_rules[0]
        host = mol_graph("OCC=O")
        for res in apply_all(keto, host):
            rev, rev_match = self._image_match(keto, host, res.match, res)
            back = apply(rev, res.graph, rev_match)
            assert are_isomorphic(back.graph, host)

    def test_random_round_trip_without_dangling_deletion(self):
        rng = Random(1234)
        done = 0
        while done < 40:
            rule = random_rule(rng)
            host = host_embedding_left(rule, rng)
            pattern, fwd_map = rule.left_pattern()
            matches = find_monomorphisms(pattern, host)[:2]
            for match in matches:
                img = {ext: match[pid] for ext, pid in fwd_map.items()}
                clean = True
                for nd in rule.nodes:
                    if nd.left is not None and nd.right is None:
                        rule_deg = sum(
                            1 for ed in rule.edges
                            if ed.left is not None and nd.id in (ed.source, ed.target))
                        if host.degree(img[nd.id]) != rule_deg:
                            clean = False  # deletion would drop outside edges
                if not clean:
                    continue
                try:
                    res = apply(rule, host, match)
                except ApplicationError:
                    continue
                rev, rev_match = self._image_match(rule, host, match, res)
                try:
                    back = apply(rev, res.graph, rev_match)
                except ApplicationError:
                    continue
                assert are_isomorphic(back.graph, host)
                done += 1
                if done >= 40:
                    break


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

def _labels_key(g: LabeledGraph) -> str:
    return "|".join(g.label(v) for v in g.nodes()) + "//" + \
        ";".join(f"{u},{v},{lbl}" for u, v, lbl in g.edges())


class TestExplore:
    RELABEL = RuleGraph("a2b", [RuleNode(1, "A", "B")], [])

    def test_depth_zero_is_starts_only(self):
        g = LabeledGraph.from_parts(["A", "A"], [(0, 1, "-")])
        out = explore([g], [self.RELABEL], depth=0, key=_labels_key)
        assert list(out.visited) == [_labels_key(g)]

    def test_bfs_visited_grows_with_depth(self):
        g = LabeledGraph.from_parts(["A", "A", "A"], [(0, 1, "-"), (1, 2, "-")])
        seen = {}
        for depth in range(4):
            out = explore([g], [self.RELABEL], strategy="bfs", depth=depth,
                          key=_labels_key)
            seen[depth] = set(out.visited)
        assert seen[0] <= seen[1] <= seen[2] <= seen[3]
        assert len(seen[3]) == 8  # every A/B labeling of three nodes

    def test_dfs_goal_path(self):
        g = LabeledGraph.from_parts(["A", "A"], [(0, 1, "-")])
        out = explore([g], [self.RELABEL], strategy="dfs", depth=5,
                      key=_labels_key,
                      goal=lambda h: all(h.label(v) == "B" for v in h.nodes()))
        assert out.path is not None
        assert len(out.path) == 3  # AA -> BA/AB -> BB
        assert all(out.path[-1].label(v) == "B" for v in range(2))

    @pytest.mark.parametrize("depth, order", [
        (1, ["AAA", "BAA", "ABA", "AAB"]),
        (2, ["AAA", "BAA", "BBA", "BAB", "ABA", "ABB", "AAB"]),
        (5, ["AAA", "BAA", "BBA", "BBB", "BAB", "ABA", "ABB", "AAB"]),
    ])
    def test_dfs_visit_order(self, depth, order):
        g = LabeledGraph.from_parts(["A", "A", "A"], [(0, 1, "-"), (1, 2, "-")])
        out = explore([g], [self.RELABEL], strategy="dfs", depth=depth,
                      key=_labels_key)
        assert ["".join(h.node_labels) for h in out.visited.values()] == order

    def test_dfs_depth_is_not_bounded_by_the_recursion_limit(self):
        n = 60
        g = LabeledGraph.from_parts(["a"] * n, [(i, i + 1, "-") for i in range(n - 1)])
        rule = RuleGraph("a2b", [RuleNode(1, "a", "b")], [])
        frame, here = sys._getframe(), 0
        while frame is not None:
            frame, here = frame.f_back, here + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(here + 50)
        try:
            out = explore([g], [rule], strategy="dfs", depth=n, key=_labels_key,
                          goal=lambda h: "a" not in h.node_labels)
        finally:
            sys.setrecursionlimit(limit)
        assert [h.node_labels for h in out.path] == \
            [("b",) * i + ("a",) * (n - i) for i in range(n + 1)]

    def test_requires_key(self):
        with pytest.raises(ValueError):
            explore([], [], key=None)
