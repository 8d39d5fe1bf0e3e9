"""Atom labels, valence table, SMILES parsing, hydrogen fill, sanity."""

from __future__ import annotations

import json
import sys
from collections import Counter

import pytest

from grw import LabeledGraph, disjoint_union
from grw.chem import (AROMATIC_ELEMENTS, ORGANIC_SUBSET, ChemError, Molecule,
                      SmilesError, accept_product, allowed_valences, canonical_smiles,
                      fill_hydrogens, implicit_hydrogens, molecular_formula,
                      parse_atom_label, parse_molecule, parse_smiles,
                      perceive_aromaticity, sanity_check)
from grw.chem.molecule import _tally

import atom_env_corpus
import chem_corpus
import oracles
import smiles_corpus
from conftest import prep

CHEM_CORPUS = json.loads(chem_corpus.CORPUS.read_text())["entries"]
SMILES_CORPUS = json.loads(smiles_corpus.CORPUS.read_text())["entries"]


def _methane_plus(labels, edges):
    """A graph of a methane (nodes 0-4) followed by more nodes."""
    return LabeledGraph.from_parts(["C", "H", "H", "H", "H"] + labels,
                                   [(0, h, "-") for h in range(1, 5)] + edges)


def _benzene_with(bond: str):
    """Filled benzene whose first hydrogen is bonded by ``bond``."""
    g = prep("c1ccccc1").graph
    first = min(e for e in g.edges() if "H" in (g.label(e[0]), g.label(e[1])))
    return LabeledGraph.from_parts(g.node_labels, [(u, v, bond if (u, v, b) == first else b)
                                                   for u, v, b in g.edges()])


# Hydrogens other than one "-" bond to a heavy atom, and hydrogens at node 0.
HYDROGENS = {
    "lone H": LabeledGraph.from_parts(["H"], []),
    "H2": LabeledGraph.from_parts(["H", "H"], [(0, 1, "-")]),
    "isolated H": _methane_plus(["H"], []),
    "H-H pair": _methane_plus(["H", "H"], [(5, 6, "-")]),
    "H-H pair on an atom": LabeledGraph.from_parts(
        ["C", "H", "H", "H", "H"], [(0, 1, "-"), (0, 2, "-"), (0, 3, "-"), (3, 4, "-")]),
    "H on two heavy atoms": LabeledGraph.from_parts(
        ["C", "C", "H", "H", "H", "H", "H", "H"],
        [(0, 1, "-"), (0, 2, "-"), (1, 2, "-"), (0, 3, "-"), (0, 4, "-"),
         (1, 5, "-"), (1, 6, "-"), (1, 7, "-")]),
    "=-bonded H": LabeledGraph.from_parts(["C", "H", "H"], [(0, 1, "="), (0, 2, "-")]),
    ":-bonded H": _benzene_with(":"),
    "odd-labelled H bond": LabeledGraph.from_parts(
        ["C", "H", "H", "H", "H"], [(0, 1, "~"), (0, 2, "-"), (0, 3, "-"), (0, 4, "-")]),
    "H at node 0": LabeledGraph.from_parts(
        ["H", "C", "H", "H", "H"], [(0, 1, "-"), (1, 2, "-"), (1, 3, "-"), (1, 4, "-")]),
    "H at node 0, odd bonds": LabeledGraph.from_parts(
        ["H", "C", "C", "H", "H", "H", "H", "H"],
        [(0, 2, "~"), (1, 2, "~"), (1, 3, "-"), (1, 4, "-"), (1, 5, "-"),
         (2, 6, "-"), (2, 7, "-")]),
    "disconnected, H at node 0": LabeledGraph.from_parts(
        ["H", "O", "H", "C", "H", "H", "H", "H"],
        [(0, 1, "-"), (1, 2, "-"), (3, 4, "-"), (3, 5, "-"), (3, 6, "-"), (3, 7, "-")]),
    "isolated H at node 0": LabeledGraph.from_parts(
        ["H", "C", "H", "H", "H", "H"], [(1, h, "-") for h in range(2, 6)]),
}


class TestTally:
    """``_tally`` counts what ``oracles.reference_tally`` counts: each
    atom's row, the heavy atoms, their adjacency and the odd edges."""

    @staticmethod
    def check(g: LabeledGraph) -> None:
        atoms, heavy, heavy_adj, odd = _tally(Molecule(g, {}, filled=True))[:4]
        got = ([(r.label, r.h, r.single, r.aromatic, r.heavy_single, r.heavy_aromatic)
                for r in atoms], heavy, [list(row.items()) for row in heavy_adj], odd)
        assert got == oracles.reference_tally(g)

    @pytest.mark.parametrize("case", sorted(HYDROGENS))
    def test_hydrogens(self, case):
        self.check(HYDROGENS[case])

    def test_chem_corpus(self):
        for entry in CHEM_CORPUS:
            g = chem_corpus.base_graph(entry["base"])
            for edit, _ in entry["cases"]:
                self.check(chem_corpus.apply_edit(g, edit))

    def test_stars(self):
        for centre, h, bonds in atom_env_corpus.stars():
            self.check(atom_env_corpus.star(centre, h, bonds))

    def test_formose_molecules(self, formose_net5):
        for mol, _ in formose_net5.molecules.values():
            self.check(mol.graph)


class TestAtomLabels:
    @pytest.mark.parametrize("text, element, charge, cls, aromatic", [
        ("C", "C", 0, None, False),
        ("Br", "Br", 0, None, False),
        ("c", "C", 0, None, True),
        ("n", "N", 0, None, True),
        ("O-", "O", -1, None, False),
        ("N+", "N", 1, None, False),
        ("C:1", "C", 0, 1, False),
        ("N+:12", "N", 1, 12, False),
        ("O-2", "O", -2, None, False),
        ("S+2:3", "S", 2, 3, False),
    ])
    def test_parse_forms(self, text, element, charge, cls, aromatic):
        lbl = parse_atom_label(text)
        assert lbl is not None
        assert (lbl.element, lbl.charge, lbl.cls, lbl.aromatic) == \
            (element, charge, cls, aromatic)

    @pytest.mark.parametrize("text", ["", "Xx", "CC", "q", "C+-", "-", "1",
                                      "C\n", "N+:1\n"])
    def test_rejects_non_atoms(self, text):
        assert parse_atom_label(text) is None

    def test_lowercase_only_for_aromatic_capable(self):
        assert parse_atom_label("f") is None  # fluorine never aromatic
        for sym in AROMATIC_ELEMENTS:
            assert parse_atom_label(sym) is not None

    def test_organic_subset(self):
        assert {"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"} <= \
            set(ORGANIC_SUBSET)


class TestValences:
    @pytest.mark.parametrize("element, charge, valences", [
        ("H", 0, (1,)),
        ("C", 0, (4,)),
        ("N", 0, (3,)),
        ("N", 1, (4,)),
        ("O", 0, (2,)),
        ("O", -1, (1,)),
        ("P", 0, (3, 5)),
        ("S", 0, (2, 4, 6)),
        ("F", 0, (1,)),
        ("Cl", 0, (1,)),
        ("Br", 0, (1,)),
        ("I", 0, (1,)),
        ("O", -2, (0,)),
        ("O", 1, (3,)),
        ("N", -1, (2,)),
        ("S", -1, (1, 3, 5)),
        ("S", 1, (3, 5, 7)),
        ("C", 1, ()),
    ])
    def test_table(self, element, charge, valences):
        assert allowed_valences(element, charge) == valences

    def test_implicit_hydrogens_plain(self):
        assert implicit_hydrogens("C", 0, 1, 0) == 3     # methyl
        assert implicit_hydrogens("O", 0, 1, 0) == 1     # hydroxyl
        assert implicit_hydrogens("N", 1, 0, 0) == 4     # ammonium
        assert implicit_hydrogens("O", -1, 1, 0) == 0    # alkoxide

    def test_implicit_hydrogens_aromatic_rounds_up(self):
        # Two aromatic bonds occupy 2 + ceil(2/2) = 3 of carbon's 4.
        assert implicit_hydrogens("C", 0, 0, 2) == 1     # benzene CH
        assert implicit_hydrogens("N", 0, 0, 2) == 0     # pyridine N
        # Three aromatic bonds occupy 3 + 2 = 5 > 4: no room at all.
        assert implicit_hydrogens("C", 0, 0, 3) == 0     # ring-fusion C
        # Aromatic atoms stop at their smallest valence: thiophene sulfur
        # keeps the lone pair rather than stretching to valence four.
        assert implicit_hydrogens("S", 0, 0, 2) == 0


class TestParseSmiles:
    def test_formaldehyde(self):
        (m,) = parse_smiles("C=O")
        assert m.atom_count == 2
        assert list(m.graph.edges()) == [(0, 1, "=")]

    def test_glycolaldehyde_chain(self):
        (m,) = parse_smiles("OCC=O")
        assert m.atom_count == 4
        labels = [m.graph.label(v) for v in m.graph.nodes()]
        assert labels == ["O", "C", "C", "O"]
        assert list(m.graph.edges()) == [(0, 1, "-"), (1, 2, "-"), (2, 3, "=")]

    def test_branches_and_ring_digits(self):
        (m,) = parse_smiles("C1CC1C(C)C")
        assert m.atom_count == 6
        assert m.graph.has_edge(0, 2)  # ring closure

    def test_percent_ring_digits(self):
        (m,) = parse_smiles("C%12CC%12")
        assert m.graph.has_edge(0, 2)

    def test_dot_separates_components(self):
        mols = parse_smiles("CC.O")
        assert [m.atom_count for m in mols] == [2, 1]

    def test_bracket_atoms(self):
        (m,) = parse_smiles("[CH3:1][O-]")
        assert m.graph.label(0) == "C:1"
        assert m.graph.label(1) == "O-"
        assert m.explicit_h == {0: 3, 1: 0}  # brackets pin H exactly

    def test_two_letter_elements(self):
        (m,) = parse_smiles("ClCBr")
        assert [m.graph.label(v) for v in m.graph.nodes()] == \
            ["Cl", "C", "Br"]

    def test_aromatic_default_bond(self):
        (m,) = parse_smiles("c1ccccc1")
        assert all(lbl == ":" for _, _, lbl in m.graph.edges())
        (m,) = parse_smiles("Cc1ccccc1")
        assert m.graph.edge_label(0, 1) == "-"  # aliphatic-aromatic is single

    @pytest.mark.parametrize("bad, fragment", [
        ("C1CC", "ring"),
        ("C(C", "unbalanced"),
        ("C)C", "unbalanced"),
        ("(C)C", "branch"),
        ("[Xx]", "element"),
        ("C=", "end"),
        ("C=#C", "bond"),
        ("C11", "ring"),
        ("C-1CC=1", "ring"),
        ("", "empty"),
        ("[C", "bracket"),
        ("[CH4\n]", "bracket"),
    ])
    def test_parse_errors(self, bad, fragment):
        with pytest.raises(SmilesError) as err:
            parse_smiles(bad)
        assert fragment in str(err.value).lower()

    def test_error_carries_position(self):
        with pytest.raises(SmilesError) as err:
            parse_smiles("CCt")
        assert err.value.position == 2

    def test_parse_molecule_requires_single_component(self):
        assert parse_molecule("CC").atom_count == 2
        with pytest.raises(SmilesError):
            parse_molecule("C.C")


class TestSmilesCorpus:
    """Seeded character edits of SMILES texts keep the outcomes recorded in
    ``data/smiles_corpus.json``, with and without the NADH registry."""

    def test_corpus_covers_every_base(self):
        assert [e["base"] for e in SMILES_CORPUS if not e["edits"]] == smiles_corpus.bases()

    @pytest.mark.parametrize("grouped", [False, True], ids=["plain", "grouped"])
    def test_mutations_keep_their_recorded_outcome(self, grouped):
        groups = smiles_corpus.registry()
        for entry in SMILES_CORPUS:
            if ("{" in entry["base"]) != grouped:
                continue
            text = smiles_corpus.apply_edits(entry["base"], entry["edits"])
            assert smiles_corpus.outcomes(text, groups) == entry["outcomes"], repr(text)


class TestFillHydrogens:
    def count(self, m: Molecule, symbol: str) -> int:
        return sum(1 for v in m.graph.nodes() if m.graph.label(v) == symbol)

    def test_formaldehyde(self):
        m = fill_hydrogens(parse_molecule("C=O"))
        assert m.atom_count == 4
        assert self.count(m, "H") == 2

    def test_methane(self):
        m = fill_hydrogens(parse_molecule("C"))
        assert m.atom_count == 5 and self.count(m, "H") == 4

    def test_bracket_h_is_exact(self):
        m = fill_hydrogens(parse_molecule("[CH2]C"))
        # The bracket carbon gets exactly 2 despite having room for 3.
        bracket_h = sum(1 for u in m.graph.neighbors(0)
                        if m.graph.label(u) == "H")
        assert bracket_h == 2

    def test_charged_atoms(self):
        m = fill_hydrogens(parse_molecule("[NH4+]"))
        assert self.count(m, "H") == 4
        m = fill_hydrogens(parse_molecule("[O-]C"))
        h_on_o = sum(1 for u in m.graph.neighbors(0)
                     if m.graph.label(u) == "H")
        assert h_on_o == 0

    def test_benzene_carbons_get_one_h_each(self):
        m = fill_hydrogens(parse_molecule("c1ccccc1"))
        assert self.count(m, "H") == 6

    def test_idempotent(self):
        m = fill_hydrogens(parse_molecule("OCC=O"))
        again = fill_hydrogens(m)
        assert again.atom_count == m.atom_count
        assert list(again.graph.edges()) == list(m.graph.edges())

    def test_marks_filled(self):
        m = parse_molecule("C")
        assert not m.filled and fill_hydrogens(m).filled


class TestSanity:
    def test_methane_clean(self):
        assert sanity_check(fill_hydrogens(parse_molecule("C"))) == []

    def test_overbonded_carbon(self):
        from grw import LabeledGraph
        g = LabeledGraph.from_parts(
            ["C", "H", "H", "H", "H", "H"],
            [(0, i, "-") for i in range(1, 6)])
        problems = sanity_check(Molecule(g, {}, filled=True))
        assert len(problems) == 1
        assert "valence" in str(problems[0]).lower()

    def test_aromatic_bond_needs_aromatic_atoms(self):
        from grw import LabeledGraph
        g = LabeledGraph.from_parts(["C", "C"], [(0, 1, ":")])
        problems = sanity_check(Molecule(g, {}, filled=True))
        assert any("aromatic" in str(p).lower() for p in problems)

    @pytest.mark.parametrize("smiles", ["[OH3+]", "C[OH+]C", "C[O+](C)C", "c1cc[o+]cc1"])
    def test_positive_oxygen_is_trivalent(self, smiles):
        prep(smiles)

    def test_disconnected_molecule_reported(self):
        from grw import LabeledGraph
        g = LabeledGraph.from_parts(["H", "H", "Cl", "H"], [(0, 3, "-"), (1, 2, "-")])
        problems = sanity_check(Molecule(g, {}, filled=True))
        assert [(p.kind, p.node, p.message) for p in problems] == [
            ("disconnected", None,
             "molecule is not connected (2 of 4 atoms reachable from atom 0)")]

    def test_unknown_label_reported(self):
        from grw import LabeledGraph
        g = LabeledGraph.from_parts(["Zz"], [])
        problems = sanity_check(Molecule(g, {}, filled=True))
        assert problems and "label" in str(problems[0]).lower()


class TestFormula:
    def test_glycolaldehyde(self):
        m = fill_hydrogens(parse_molecule("OCC=O"))
        assert molecular_formula(m) == {"C": 2, "H": 4, "O": 2}

    def test_charges_do_not_change_elements(self):
        m = fill_hydrogens(parse_molecule("[NH4+]"))
        assert molecular_formula(m) == {"H": 4, "N": 1}


class TestChemCorpus:
    """Fill, sanity, perception and canonical SMILES of seeded single
    mutations keep the outcomes recorded in ``data/chem_corpus.json``."""

    def test_corpus_covers_every_group(self):
        assert {e["group"] for e in CHEM_CORPUS} == {"formose", "aromatic", "fixed"}
        assert all(e["cases"][0][0] is None for e in CHEM_CORPUS)

    @pytest.mark.parametrize("group", ["formose", "aromatic", "fixed"])
    def test_mutations_keep_their_recorded_outcome(self, group):
        for entry in (e for e in CHEM_CORPUS if e["group"] == group):
            g = chem_corpus.base_graph(entry["base"])
            for edit, want in entry["cases"]:
                got = chem_corpus.outcome(chem_corpus.apply_edit(g, edit))
                assert got == want, (entry["base"], edit)


class TestAtomEnvCorpus:
    """Sanity, fill, kekulization and canonical SMILES of every star in
    ``data/atom_env_corpus.json`` keep their recorded outcomes."""

    def test_stars_keep_their_recorded_outcome(self):
        want = json.loads(atom_env_corpus.CORPUS.read_text())
        assert [tuple(case[:3]) for case in want] == atom_env_corpus.stars()
        for centre, h, bonds, recorded in want:
            got = atom_env_corpus.outcome(atom_env_corpus.star(centre, h, bonds))
            assert json.loads(json.dumps(got)) == recorded, (centre, h, bonds)


def stepwise(m: Molecule) -> tuple[str, Molecule]:
    """``accept_product`` spelled out through the public functions.  An
    unfilled molecule is refused first, as ``canonical_smiles`` refuses it."""
    if not m.filled:
        return canonical_smiles(m), m
    p = perceive_aromaticity(m)
    issues = sanity_check(p)
    if issues:
        raise ChemError("; ".join(v.message for v in issues))
    return canonical_smiles(p), p


def result(accept, m: Molecule):
    """What ``accept`` makes of ``m``: the name and the molecule's parts,
    or the exception's class and message."""
    try:
        name, p = accept(m)
    except Exception as exc:  # the error is the result
        return type(exc), str(exc)
    return name, p.graph.node_labels, list(p.graph.edges()), p.explicit_h, p.filled


class TestAcceptProduct:
    """``accept_product`` answers as perception, the sanity check and
    canonical SMILES do one after another, and reads a product once."""

    ODD = {
        "disconnected": Molecule(disjoint_union([prep("OCC=O").graph, prep("C=O").graph])[0],
                                 {}, filled=True),
        "unfilled": Molecule(prep("OCC=O").graph, {}, filled=False),
        "over-valent": Molecule(LabeledGraph.from_parts(
            ["C"] + ["H"] * 5, [(0, h, "-") for h in range(1, 6)]), {}, filled=True),
        **{case: Molecule(HYDROGENS[case], {}, filled=True) for case in (
            "isolated H", "H-H pair on an atom", "H on two heavy atoms", "=-bonded H",
            "odd-labelled H bond", "H at node 0, odd bonds",
            "disconnected, H at node 0", "isolated H at node 0")},
    }

    @pytest.mark.parametrize("case", sorted(ODD))
    def test_odd_molecule(self, case):
        m = self.ODD[case]
        assert result(accept_product, m) == result(stepwise, m)
        assert isinstance(result(stepwise, m)[0], type)

    def test_chem_corpus(self):
        for entry in CHEM_CORPUS:
            g = chem_corpus.base_graph(entry["base"])
            for edit, _ in entry["cases"]:
                m = Molecule(chem_corpus.apply_edit(g, edit), {}, filled=True)
                assert result(accept_product, m) == result(stepwise, m), (entry["base"], edit)

    def test_formose_products(self, formose_net5):
        for mol, _ in formose_net5.molecules.values():
            m = Molecule(mol.graph, {}, filled=True)
            assert result(accept_product, m) == result(stepwise, m)

    @pytest.mark.parametrize("smiles", ["CC", "c1ccccc1"])
    def test_unfilled_is_refused_before_perception(self, smiles):
        with pytest.raises(ChemError) as err:
            accept_product(parse_molecule(smiles))
        assert type(err.value) is ChemError
        assert str(err.value) == "canonical_smiles requires a hydrogen-filled molecule"

    def test_hydrogens_need_no_record_lookup(self, monkeypatch, formose_net5):
        import grw.chem.molecule
        original = grw.chem.molecule._atom_record
        lookups = []
        monkeypatch.setattr(grw.chem.molecule, "_atom_record",
                            lambda *row: lookups.append(row) or original(*row))
        heavy = 0
        for mol, _ in formose_net5.molecules.values():
            accept_product(Molecule(mol.graph, {}, filled=True))
            heavy += sum(lbl != "H" for lbl in mol.graph.node_labels)
        assert len(lookups) == heavy

    def test_a_product_is_tallied_once(self, monkeypatch, formose_net5):
        import grw.chem.molecule
        import grw.core
        calls = Counter()
        for name, original in (("_tally", grw.chem.molecule._tally),
                               ("connected_components", grw.core.connected_components)):
            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "grw"]:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
        product = max((mol for mol, _ in formose_net5.molecules.values()),
                      key=lambda mol: mol.graph.node_count)
        accept_product(Molecule(product.graph, {}, filled=True))
        assert calls == Counter({"_tally": 1})
        calls.clear()
        g = LabeledGraph.from_parts(["H", "H", "Cl", "H"], [(0, 3, "-"), (1, 2, "-")])
        assert [(p.kind, p.node, p.message) for p in sanity_check(Molecule(g, {}, True))] == [
            ("disconnected", None,
             "molecule is not connected (2 of 4 atoms reachable from atom 0)")]
        assert calls == Counter({"_tally": 1})
