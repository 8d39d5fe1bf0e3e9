"""Command-line interface, exercised in process through ``main``."""

from __future__ import annotations

import pytest

from grw import LabeledGraph, write_gml_graph
from grw.chem import canonical_smiles
from grw.cli import (EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, EXIT_USAGE, assets_dir,
                     main)
from grw.demos import claw_graph, triangle_graph

from conftest import prep
from test_demos import WIKI_PUZZLE, WIKI_SOLUTION

FORMOSE_RULES = [str(assets_dir() / n) for n in
                 ("keto_enol.gml", "keto_enol_reverse.gml",
                  "aldol.gml", "aldol_reverse.gml")]


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCanon:
    def test_single_molecule(self, capsys):
        code, out, _ = run(capsys, "canon", "OCC=O")
        assert code == EXIT_OK
        assert out == "C(CO)=O\n"

    def test_one_line_per_argument(self, capsys):
        code, out, _ = run(capsys, "canon", "CCO", "OCC")
        assert code == EXIT_OK
        assert out == "CCO\nCCO\n"

    def test_components_sorted_and_dot_joined(self, capsys):
        code, out, _ = run(capsys, "canon", "CCO.C")
        assert code == EXIT_OK
        assert out == "C.CCO\n"

    def test_deterministic(self, capsys):
        first = run(capsys, "canon", "c1ccccc1")
        second = run(capsys, "canon", "C1=CC=CC=C1")
        assert first == second == (EXIT_OK, "c1ccccc1\n", "")

    def test_grouped_smiles(self, capsys):
        grouped = "[{CONH2}]C1[CH2]C=CN(C=1)[{Ribo-ADP}]"
        full = ("NC(=O)C1[CH2]C=CN(C=1)C2OC(COP(O)(=O)OP(O)(=O)OCC3OC(C(O)"
                "C3O)n4cnc5c(N)ncnc54)C(O)C2O")
        code, out, _ = run(capsys, "canon", grouped,
                           "--groups", str(assets_dir() / "nadh_groups.gml"))
        assert code == EXIT_OK
        assert out.strip() == canonical_smiles(prep(full))

    def test_bad_smiles_is_parse_error(self, capsys):
        code, _, err = run(capsys, "canon", "C(")
        assert code == EXIT_PARSE
        assert "parse error" in err

    @pytest.mark.parametrize("smiles, message", [
        ("C\u00b2", "unexpected character '\u00b2' (position 1)"),
        ("C1CCC%1", "'%' must be followed by two digits (position 5)"),
    ])
    def test_ring_closures_take_ascii_digits(self, capsys, smiles, message):
        code, _, err = run(capsys, "canon", smiles)
        assert code == EXIT_PARSE
        assert err == f"parse error: {message}\n"

    def test_bracket_atom_error_is_one_line(self, capsys):
        code, _, err = run(capsys, "canon", "[CH4\n]")
        assert code == EXIT_PARSE
        assert err == "parse error: malformed bracket atom [CH4\\n] (position 0)\n"

    def test_impossible_valence_is_domain_error(self, capsys):
        code, _, err = run(capsys, "canon", "[CH5]")
        assert code == EXIT_DOMAIN
        assert "valence" in err

    def test_sanity_error_prints_the_message(self, capsys):
        code, _, err = run(capsys, "canon", "C(C)(C)(C)(C)C")
        assert code == EXIT_DOMAIN
        assert err == "error: atom 0 (C) has bond-order sum 5, allowed valences (4,)\n"


class TestApply:
    def test_diels_alder_on_smiles(self, capsys):
        code, out, _ = run(capsys, "apply",
                           "--rule", str(assets_dir() / "diels_alder.gml"),
                           "--smiles", "C=CC=C.C=C")
        assert code == EXIT_OK
        assert out == "C1=CCCCC1\n"

    def test_all_and_dedup(self, capsys):
        rule = str(assets_dir() / "diels_alder.gml")
        code, out, _ = run(capsys, "apply", "--rule", rule,
                           "--smiles", "CC(=C)C=C.CC=C", "--all", "--dedup")
        lines = [l for l in out.splitlines() if l]
        assert code == EXIT_OK
        assert sorted(lines) == ["CC1=CCC(C)CC1", "CC1=CCCC(C)C1"]

    def test_graph_host_prints_gml(self, capsys, tmp_path):
        host = tmp_path / "claw.gml"
        host.write_text(write_gml_graph(claw_graph()))
        code, out, _ = run(capsys, "apply",
                           "--rule", str(assets_dir() / "wye_to_delta.gml"),
                           "--graph", str(host))
        assert code == EXIT_OK
        assert out.startswith("graph [")
        assert out.count("edge [") == 3

    def test_no_match_is_domain_error(self, capsys):
        code, _, err = run(capsys, "apply",
                           "--rule", str(assets_dir() / "diels_alder.gml"),
                           "--smiles", "C")
        assert code == EXIT_DOMAIN
        assert "no match" in err

    def test_sanity_error_prints_the_message(self, capsys):
        code, _, err = run(capsys, "apply",
                           "--rule", str(assets_dir() / "diels_alder.gml"),
                           "--smiles", "C=CC=C.C(C)(C)(C)(C)C")
        assert code == EXIT_DOMAIN
        assert err == "error: atom 0 (C) has bond-order sum 5, allowed valences (4,)\n"

    # A wildcard bond that a rule deletes or relabels changes its ends by an
    # unknown order, which exempts them from the valence check of
    # check_chem_rule, so these rules pass it and still build bad products.
    UNBALANCED_BOND = """rule [ ruleID "Unbalanced C-C bond"
      context [ node [ id 1 label "C" ] node [ id 2 label "*" ]
                node [ id 3 label "C" ] node [ id 4 label "*" ] ]
      left [ edge [ source 1 target 2 label "*" ] edge [ source 3 target 4 label "*" ] ]
      right [ edge [ source 1 target 3 label "-" ] ] ]"""
    RING_CUT = """rule [ ruleID "Ring cut"
      context [ node [ id 1 label "n" ] node [ id 2 label "c" ]
                node [ id 3 label "*" ] node [ id 4 label "*" ] ]
      left [ edge [ source 1 target 2 label ":" ]
             edge [ source 1 target 3 label "*" ] edge [ source 2 target 4 label "*" ] ]
      right [ edge [ source 1 target 3 label ":" ] edge [ source 2 target 4 label ":" ] ] ]"""

    @pytest.mark.parametrize("rule, smiles, message", [
        (UNBALANCED_BOND, "C.C", "atom 0 (H) has bond-order sum 0, allowed valences (1,)"),
        (RING_CUT, "c1ccncc1", "node 2 (c) needs 2 extra bonds; cannot kekulize"),
    ])
    def test_product_error_is_domain_error(self, capsys, tmp_path, rule, smiles, message):
        path = tmp_path / "rule.gml"
        path.write_text(rule)
        code, out, err = run(capsys, "apply", "--rule", str(path), "--smiles", smiles)
        assert (code, out, err) == (EXIT_DOMAIN, "", f"error: {message}\n")

    @pytest.mark.parametrize("constraint, message", [
        ('constrainNode [ id 1 op < nodeLabels [ label "C" ] ]',
         "operator '<' is not valid for label constraints (line 3, column 1)"),
        ("constrainNoEdge [ source 1 target 1 ]",
         "NoEdge endpoints must be distinct (line 3, column 1)"),
        ("constrainNode [ id 1 op = ]",
         "constrainNode is missing its 'nodeLabels' entry (line 2, column 36)"),
    ], ids=["label-op", "noedge-loop", "missing-key"])
    def test_refused_constraint_is_parse_error(self, capsys, tmp_path, constraint, message):
        rule = tmp_path / "bad.gml"
        rule.write_text('rule [ ruleID "r" context [ node [ id 1 label "C" ] ]\n'
                        f"  left [ {constraint} ] ]\n")
        host = tmp_path / "g.gml"
        host.write_text(write_gml_graph(triangle_graph()))
        code, out, err = run(capsys, "apply", "--rule", str(rule), "--graph", str(host))
        assert (code, out, err) == (EXIT_PARSE, "", f"parse error: {message}\n")

    def test_missing_rule_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "apply", "--rule", "/no/such/rule.gml",
                           "--smiles", "C")
        assert code == EXIT_USAGE
        assert "no such file" in err


class TestToychem:
    def test_formose_growth_table(self, capsys):
        code, out, _ = run(capsys, "toychem", "--rules", *FORMOSE_RULES,
                           "--smiles", "OCC=O", "C=O", "--iter", "4")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "iter\tmolecules\treactions\tseconds"
        cells = [line.split("\t")[:3] for line in lines[1:]]
        assert cells == [["0", "2", "0"], ["1", "3", "1"], ["2", "5", "4"],
                         ["3", "9", "10"], ["4", "37", "44"]]

    def test_rule_directory_and_exports(self, capsys, tmp_path):
        rule_dir = tmp_path / "rules"
        rule_dir.mkdir()
        for name in ("keto_enol.gml", "keto_enol_reverse.gml"):
            (rule_dir / name).write_text((assets_dir() / name).read_text())
        dot, gml = tmp_path / "net.dot", tmp_path / "net.gml"
        code, _, _ = run(capsys, "toychem", "--rules", str(rule_dir),
                         "--smiles", "OCC=O", "--iter", "2",
                         "--dot", str(dot), "--gml", str(gml))
        assert code == EXIT_OK
        assert dot.read_text().startswith("digraph RN {")
        assert gml.read_text().startswith("graph [\n  directed 1")

    def test_energy_model_and_temperature(self, capsys):
        code, out, _ = run(capsys, "toychem", "--rules", *FORMOSE_RULES,
                           "--smiles", "OCC=O", "C=O", "--iter", "1",
                           "--energy", str(assets_dir() / "energy_demo.tsv"),
                           "--temp", "400")
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("0\t2\t0")

    def test_unchecked_rule_is_domain_error(self, capsys):
        code, _, err = run(capsys, "toychem",
                           "--rules", str(assets_dir() / "life_birth.gml"),
                           "--smiles", "C", "--iter", "1")
        assert code == EXIT_DOMAIN
        assert "label" in err

    def test_refused_constraint_is_parse_error(self, capsys, tmp_path):
        rule = tmp_path / "bad.gml"
        rule.write_text('rule [ ruleID "r" context [ node [ id 1 label "C" ] ]\n'
                        '  left [ constrainNode [ id 1 op > nodeLabels [ label "C" ] ] ] ]\n')
        code, out, err = run(capsys, "toychem", "--rules", str(rule),
                             "--smiles", "C", "--iter", "1")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == ("parse error: operator '>' is not valid for label constraints "
                       "(line 3, column 1)\n")

    @pytest.mark.parametrize("text, message", [
        ("C=O\tabc\n", "energy model line 1: bad contribution 'abc'"),
        ("C1CC\t1.0\n", "energy model line 1: unclosed ring bond 1 (position 1)"),
    ], ids=["contribution", "fragment"])
    def test_malformed_energy_file_is_parse_error(self, capsys, tmp_path, text, message):
        energy = tmp_path / "bad.tsv"
        energy.write_text(text)
        code, out, err = run(capsys, "toychem", "--rules", FORMOSE_RULES[0],
                             "--smiles", "C=O", "--iter", "1", "--energy", str(energy))
        assert (code, out, err) == (EXIT_PARSE, "", f"parse error: {message}\n")

    @pytest.mark.parametrize("extra", [("--iter", "-1"),
                                       ("--iter", "1", "--max-atoms", "0"),
                                       ("--iter", "1", "--temp", "0"),
                                       ("--iter", "1", "--temp", "nan"),
                                       ("--iter", "1", "--temp", "1e-322")])
    def test_bad_config_is_usage_error(self, capsys, extra):
        code, _, err = run(capsys, "toychem", "--rules", FORMOSE_RULES[0],
                           "--smiles", "C=O", *extra)
        assert code == EXIT_USAGE
        assert "usage error" in err


class TestRings:
    def test_k4_lists_seven_cycles(self, capsys, tmp_path):
        k4 = LabeledGraph.from_parts(
            ["A"] * 4, [(u, v, "-") for u in range(4) for v in range(u + 1, 4)])
        path = tmp_path / "k4.gml"
        path.write_text(write_gml_graph(k4))
        code, out, _ = run(capsys, "rings", "--graph", str(path))
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 7
        assert sorted(len(l.split()) for l in lines) == [3, 3, 3, 3, 4, 4, 4]

    def test_max_bounds_cycle_size(self, capsys, tmp_path):
        k4 = LabeledGraph.from_parts(
            ["A"] * 4, [(u, v, "-") for u in range(4) for v in range(u + 1, 4)])
        path = tmp_path / "k4.gml"
        path.write_text(write_gml_graph(k4))
        code, out, _ = run(capsys, "rings", "--graph", str(path), "--max", "3")
        assert code == EXIT_OK
        assert len(out.splitlines()) == 4

    def test_invalid_gml_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.gml"
        path.write_text("this is not a graph")
        code, _, err = run(capsys, "rings", "--graph", str(path))
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_non_ascii_digit_is_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad.gml"
        path.write_text('graph [\n  node [ id \u00b2 label "A" ]\n]\n')
        code, _, err = run(capsys, "rings", "--graph", str(path))
        assert code == EXIT_PARSE
        assert err == "parse error: unexpected character '\u00b2' (line 2, column 13)\n"


@pytest.mark.parametrize("argv, option, value", [
    (("life", "--grid", "3x3", "--alive", "1,1", "--steps"), "--steps", "-2"),
    (("rings", "--graph", "{tri}", "--max"), "--max", "-1"),
    (("ydelta", "--a", "{tri}", "--b", "{tri}", "--depth"), "--depth", "-3"),
], ids=["life-steps", "rings-max", "ydelta-depth"])
def test_negative_count_is_usage_error(capsys, tmp_path, argv, option, value):
    tri = tmp_path / "tri.gml"
    tri.write_text(write_gml_graph(triangle_graph()))
    code, out, err = run(capsys, *(a.format(tri=tri) for a in argv), value)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"usage error: argument {option}: expected a non-negative "
                   f"integer, found '{value}'\n")


class TestYdelta:
    def write(self, tmp_path, name, graph):
        p = tmp_path / name
        p.write_text(write_gml_graph(graph))
        return str(p)

    def test_claw_and_triangle_are_equivalent(self, capsys, tmp_path):
        a = self.write(tmp_path, "a.gml", claw_graph())
        b = self.write(tmp_path, "b.gml", triangle_graph())
        code, out, _ = run(capsys, "ydelta", "--a", a, "--b", b,
                           "--depth", "1")
        assert code == EXIT_OK
        assert out == "EQUIVALENT\n"

    def test_unrelated_graphs_are_not(self, capsys, tmp_path):
        star4 = LabeledGraph.from_parts(
            ["*"] * 5, [(0, i, "*") for i in range(1, 5)])
        a = self.write(tmp_path, "a.gml", claw_graph())
        b = self.write(tmp_path, "b.gml", star4)
        code, out, _ = run(capsys, "ydelta", "--a", a, "--b", b,
                           "--depth", "2")
        assert code == EXIT_OK
        assert out == "NOT EQUIVALENT within depth 2\n"


class TestLife:
    def test_blinker_two_steps(self, capsys):
        code, out, _ = run(capsys, "life", "--grid", "5x5",
                           "--alive", "1,2", "2,2", "3,2", "--steps", "2")
        assert code == EXIT_OK
        assert out == ".....\n..#..\n..#..\n..#..\n.....\n"

    def test_trace_prints_every_step(self, capsys):
        code, out, _ = run(capsys, "life", "--grid", "5x5",
                           "--alive", "1,2;2,2;3,2", "--steps", "2", "--trace")
        assert code == EXIT_OK
        assert "step 1:" in out and "step 2:" in out
        assert ".###." in out  # the horizontal phase is shown

    def test_bad_grid_spec(self, capsys):
        code, _, err = run(capsys, "life", "--grid", "five")
        assert code == EXIT_USAGE
        assert "bad grid" in err

    def test_cell_outside_grid(self, capsys):
        code, _, err = run(capsys, "life", "--grid", "3x3", "--alive", "5,5")
        assert code == EXIT_USAGE
        assert "outside" in err

    def test_empty_grid_is_usage_error(self, capsys):
        code, _, err = run(capsys, "life", "--grid", "0x5")
        assert code == EXIT_USAGE
        assert err == "usage error: grid dimensions must be positive\n"


class TestSudoku:
    def test_solves_puzzle_file(self, capsys, tmp_path):
        path = tmp_path / "puzzle.txt"
        path.write_text(WIKI_PUZZLE)
        code, out, _ = run(capsys, "sudoku", "--grid", str(path))
        assert code == EXIT_OK
        assert out.replace("\n", "") == WIKI_SOLUTION

    def test_unsolvable_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "puzzle.txt"
        path.write_text("123456780" + "0" * 8 + "9" + "0" * 63)
        code, _, err = run(capsys, "sudoku", "--grid", str(path))
        assert code == EXIT_DOMAIN
        assert "no solution" in err

    @pytest.mark.parametrize("text, message", [
        ("12345", "puzzle must have 81 cells, found 5"),
        ("x" + "0" * 80, "invalid puzzle character 'x'"),
    ], ids=["cell-count", "character"])
    def test_malformed_puzzle_is_parse_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "puzzle.txt"
        path.write_text(text)
        code, _, err = run(capsys, "sudoku", "--grid", str(path))
        assert code == EXIT_PARSE
        assert err == f"parse error: {message}\n"


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "definitely-not-a-command")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_no_arguments(self, capsys):
        code, _, err = run(capsys)
        assert code == EXIT_USAGE
