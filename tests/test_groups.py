"""Molecular groups: registry files, SMILES placeholders, rule placeholders."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from grw import GmlError, parse_gml_rule
from grw.chem import (ChemError, Group, GroupRegistry, SmilesError, canonical_smiles,
                      fill_hydrogens, parse_gml_groups, parse_molecule,
                      parse_smiles, perceive_aromaticity, sanity_check)
from grw.cli import EXIT_PARSE, assets_dir, main

from conftest import asset_text, prep
from test_canonical import NADH, NADP

NADH_GROUPED = "[{CONH2}]C1[CH2]C=CN(C=1)[{Ribo-ADP}]"
NADP_GROUPED = "[{CONH2}]c1ccc[n+](c1)[{Ribo-ADP}]"

# Two context placeholders; ``data/smiles_corpus.json`` pins its expansion.
TWO_PLACEHOLDER_RULE = """rule [
  ruleID "two placeholders"
  context [
    node [ id 1 label "[{CONH2}]" ]
    node [ id 2 label "C" ]
    node [ id 3 label "[{Ribo-ADP}]" ]
    edge [ source 1 target 2 label "-" ]
  ]
  left [ node [ id 4 label "O" ] edge [ source 2 target 4 label "=" ] ]
  right [ node [ id 4 label "O" ] edge [ source 2 target 4 label "-" ]
          edge [ source 3 target 4 label "-" ] ]
]
"""
PINNED_RULE = json.loads(
    (Path(__file__).resolve().parent / "data" / "smiles_corpus.json").read_text())["rule"]


def rule_elements(rule) -> dict:
    """The nodes and edges of a rule, as JSON data."""
    return {"nodes": [[n.id, n.left, n.right] for n in rule.nodes],
            "edges": [[e.source, e.target, e.left, e.right] for e in rule.edges]}


@pytest.fixture(scope="module")
def nadh_registry() -> GroupRegistry:
    return parse_gml_groups(asset_text("nadh_groups.gml"))


class TestRegistry:
    def test_parse_packaged_file(self, nadh_registry):
        assert sorted(nadh_registry.names()) == ["CONH2", "Ribo-ADP"]
        assert "CONH2" in nadh_registry
        assert len(nadh_registry) == 2

    def test_group_sizes(self, nadh_registry):
        assert nadh_registry.get("CONH2").graph.node_count == 3
        assert nadh_registry.get("Ribo-ADP").graph.node_count == 35

    def test_proxy_validated(self):
        g = parse_molecule("C=O").graph
        with pytest.raises(ChemError):
            Group("bad", g, proxy=9)

    def test_unknown_group_lookup(self, nadh_registry):
        with pytest.raises(ChemError):
            nadh_registry.get("nope")

    def test_registry_rejects_bad_labels(self):
        from grw import LabeledGraph
        reg = GroupRegistry()
        bad = LabeledGraph.from_parts(["Zz"], [])
        with pytest.raises(ChemError):
            reg.add(Group("z", bad, proxy=0))

    def test_duplicate_group_name(self, nadh_registry):
        with pytest.raises(ChemError):
            nadh_registry.add(Group("CONH2",
                                    parse_molecule("C=O").graph, proxy=0))

    @pytest.mark.parametrize("second, message", [
        ('group [ groupID "B" proxy 5 graph [ node [ id 0 label "C" ] ] ]',
         "proxy 5 is not a node of group 'B'"),
        ('group [ groupID "B" proxy 0 graph [ node [ id 0 label "Zz" ] ] ]',
         "group 'B': node 0 label 'Zz' is not an atom"),
        ('group [ groupID "A" proxy 0 graph [ node [ id 0 label "N" ] ] ]',
         "duplicate group 'A'"),
    ])
    def test_group_errors_point_at_their_group(self, second, message):
        text = ('group [ groupID "A" proxy 0 graph [ node [ id 0 label "C" ] ] ]\n'
                f"\n  {second}\n")
        with pytest.raises(GmlError) as err:
            parse_gml_groups(text)
        assert str(err.value) == f"{message} (line 3, column 3)"

    def test_missing_key_points_at_its_own_group(self):
        text = ('group [ groupID "A" graph [ node [ id 0 label "C" ] ] ]\n'
                "\n\n"
                'group [ groupID "B" proxy 0 graph [ node [ id 0 label "N" ] ] ]\n')
        with pytest.raises(GmlError) as err:
            parse_gml_groups(text)
        assert str(err.value) == "group needs groupID, proxy and graph (line 1, column 1)"


class TestSmilesPlaceholders:
    def test_placeholder_requires_registry(self):
        with pytest.raises(ChemError):
            parse_smiles("[{CONH2}]C")

    def test_unknown_name_rejected(self, nadh_registry):
        with pytest.raises(SmilesError) as err:
            parse_smiles("[{XYZ}]C", groups=nadh_registry)
        assert str(err.value) == "unknown group 'XYZ' (position 0)"

    @pytest.mark.parametrize("smiles, message", [
        ("C[{CONH2}].[{XYZ}][{ABC}]", "unknown group 'XYZ' (position 11)"),
        # The whole text is scanned before any group is looked up.
        ("[{XYZ}]C(", "unbalanced '(' (position 9)"),
    ])
    def test_first_error_is_reported(self, nadh_registry, smiles, message):
        with pytest.raises(SmilesError) as err:
            parse_smiles(smiles, groups=nadh_registry)
        assert str(err.value) == message

    def test_unknown_name_is_a_parse_error_in_canon(self, capsys):
        code = main(["canon", "[{XYZ}]C", "--groups", str(assets_dir() / "nadh_groups.gml")])
        assert (code, capsys.readouterr().err) == \
            (EXIT_PARSE, "parse error: unknown group 'XYZ' (position 0)\n")

    def test_proxy_inherits_placeholder_bonds(self, nadh_registry):
        (m,) = parse_smiles("[{CONH2}]C", groups=nadh_registry)
        # amide carbon (the proxy) bonded to: methyl C, N, O
        assert m.atom_count == 4
        proxy_neighbors = sorted(
            m.graph.label(u) for u in m.graph.neighbors(0))
        assert proxy_neighbors == ["C", "N", "O"]

    def test_nadh_group_form_equals_full_form(self, nadh_registry):
        full = prep(NADH)
        (grouped,) = parse_smiles(NADH_GROUPED, groups=nadh_registry)
        grouped = perceive_aromaticity(fill_hydrogens(grouped))
        assert sanity_check(grouped) == []
        assert canonical_smiles(grouped) == canonical_smiles(full)

    def test_nad_plus_group_form_equals_full_form(self, nadh_registry):
        full = prep(NADP)
        (grouped,) = parse_smiles(NADP_GROUPED, groups=nadh_registry)
        grouped = perceive_aromaticity(fill_hydrogens(grouped))
        assert sanity_check(grouped) == []
        assert canonical_smiles(grouped) == canonical_smiles(full)

    def test_heavy_atom_count_preserved(self, nadh_registry):
        (grouped,) = parse_smiles(NADH_GROUPED, groups=nadh_registry)
        assert grouped.atom_count == 44  # heavy atoms only before fill


class TestRulePlaceholders:
    def test_context_placeholder_expands(self, nadh_registry):
        rule = parse_gml_rule("""
            rule [
              ruleID "hydrate the amide neighbor"
              context [
                node [ id 1 label "[{CONH2}]" ]
                node [ id 2 label "O" ]
              ]
              left [ edge [ source 1 target 2 label "-" ] ]
              right [ edge [ source 1 target 2 label "=" ] ]
            ]""", groups=nadh_registry)
        labels = {nd.left for nd in rule.nodes if nd.left}
        assert "[{CONH2}]" not in labels
        assert {"C", "N", "O"} <= labels
        assert len(rule.nodes) == 2 + 2  # proxy kept, two fragment atoms added
        # The spliced fragment arrives as context: same label on both sides.
        assert all(nd.left == nd.right for nd in rule.nodes)

    def test_two_context_placeholders_are_pinned(self, nadh_registry):
        rule = parse_gml_rule(TWO_PLACEHOLDER_RULE, groups=nadh_registry)
        assert rule_elements(rule) == PINNED_RULE
        # Each proxy keeps its placeholder's id; the other 2 + 34 fragment
        # atoms follow in declaration order, with ids above the rule's 4.
        assert [n.id for n in rule.nodes] == list(range(1, 41))

    def test_unknown_group_comes_before_a_later_context_error(self, nadh_registry):
        with pytest.raises(ChemError, match=r"^unknown group 'XYZ'$"):
            parse_gml_rule("""
                rule [
                  ruleID "bad"
                  context [ node [ id 1 label "[{XYZ}]" ] ]
                  left [ node [ id 2 label "[{CONH2}]" ] ]
                  right [ node [ id 2 label "C" ] ]
                ]""", groups=nadh_registry)

    def test_changing_placeholder_rejected(self, nadh_registry):
        with pytest.raises(ChemError):
            parse_gml_rule("""
                rule [
                  ruleID "bad"
                  left [ node [ id 1 label "[{CONH2}]" ] ]
                  right [ node [ id 1 label "C" ] ]
                ]""", groups=nadh_registry)
