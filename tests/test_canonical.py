"""Canonical SMILES: invariance, separation, roundtrip, frozen examples."""

from __future__ import annotations

from random import Random

import pytest

from grw import LabeledGraph, canonical_key, disjoint_union
from grw.chem import (ChemError, Molecule, canonical_smiles, fill_hydrogens, parse_smiles,
                      perceive_aromaticity)
from grw.network import ExpansionConfig, expand

from conftest import permuted, prep
from oracles import isomorphic

NADH = ("NC(=O)C1[CH2]C=CN(C=1)C2OC(COP(O)(=O)OP(O)(=O)"
        "OCC3OC(C(O)C3O)n4cnc5c(N)ncnc54)C(O)C2O")
NADP = ("NC(=O)c1ccc[n+](c1)C2OC(COP(O)(=O)OP(O)(=O)"
        "OCC3OC(C(O)C3O)n4cnc5c(N)ncnc54)C(O)C2O")

ASSORTED = [
    # alkanes and branching
    "C", "CC", "CCC", "CCCC", "CC(C)C", "CCCCC", "CC(C)CC", "CC(C)(C)C",
    "CCCCCC", "CC(C)C(C)C",
    # unsaturation
    "C=C", "CC=C", "C=CC=C", "CC=CC", "C#C", "CC#C", "CC#CC", "C=C=C",
    "C#N", "CC#N", "CC=NO",
    # oxygen chemistry
    "O", "CO", "CCO", "OCCO", "C=O", "CC=O", "OCC=O", "CC(C)=O", "CC(=O)O",
    "COC", "CC(=O)OC", "OC=O", "OCC(O)CO", "CC(O)C", "CCOC(C)=O", "O=C=O",
    "OC(O)=O", "O=C(N)N", "OCC(O)C(O)C(O)C=O", "OCC(O)C(O)C(O)C(O)C=O",
    "OCC1OC(O)C(O)C1O",
    # nitrogen chemistry
    "N", "CN", "CCN", "CNC", "CN(C)C", "NCCN", "CC(=O)N", "NC=O",
    "NCC(=O)O", "CC(N)C(=O)O", "N#N",
    # charges and atom classes
    "[NH4+]", "[OH-]", "CC(=O)[O-]", "C[NH3+]", "[CH3:1]O", "[CH3:1]N",
    "[O-]C=O",
    # sulfur and phosphorus
    "S", "CS", "CCS", "CSC", "CSSC", "OS(=O)(=O)O", "CP", "OP(O)(O)=O",
    "CCSCC", "S=C=S", "O=O",
    # halogens
    "CCl", "CBr", "CF", "CI", "ClCCl", "FC(F)F", "ClC(Cl)(Cl)Cl", "BrCCBr",
    # aliphatic rings
    "C1CC1", "C1CCC1", "C1CCCC1", "C1CCCCC1", "C1CCCCCC1", "C1CC1C",
    "C1CCOC1", "O1CCOCC1", "C1CCNC1", "C1CCNCC1", "C1CCSC1", "CN1CCCC1",
    "C1CCC2CCCCC2C1", "C1CC2CCC1CC2",
    # aromatics, plain and Kekule spellings
    "c1ccccc1", "C1=CC=CC=C1", "Cc1ccccc1", "CC1=CC=CC=C1",
    "c1ccc2ccccc2c1", "c1ccncc1", "c1cc[nH]c1", "c1ccoc1", "c1ccsc1",
    "c1cnc[nH]1", "Oc1ccccc1", "Nc1ccccc1", "Cc1ccc(C)cc1",
    "c1ccc(cc1)c1ccccc1", "NC(=O)c1ccccc1",
]


@pytest.fixture(scope="module")
def corpus(formose_rules, formose_inputs):
    """>= 100 sane molecules including NADH, NAD+, formose to iteration 3."""
    net = expand(formose_inputs, formose_rules, ExpansionConfig(iterations=3))
    mols = [mol for mol, _ in net.molecules.values()]
    mols.extend(prep(s) for s in ASSORTED)
    mols.append(prep(NADH))
    mols.append(prep(NADP))
    return mols


class TestFrozenExamples:
    @pytest.mark.parametrize("smiles, want", [
        ("C", "C"),
        ("OCC=O", "C(CO)=O"),
        ("CC(C)CC", "CCC(C)C"),
        ("OCC(O)C(O)C=O", "C(C(C(CO)O)O)=O"),
        ("c1ccccc1", "c1ccccc1"),
        ("C1=CC=CC=C1", "c1ccccc1"),
        ("c1ccc2ccccc2c1", "c1ccc2ccccc2c1"),
        ("CC(=O)O", "CC(=O)O"),
        ("OC=CO", "C(=CO)O"),
        ("[H][H]", "[H][H]"),
    ])
    def test_value(self, smiles, want):
        assert canonical_smiles(prep(smiles)) == want

    def test_requires_filled_molecule(self):
        (m,) = parse_smiles("C")
        with pytest.raises(ChemError):
            canonical_smiles(m)


class TestRingClosureDigits:
    """Two-digit closures (``%nn``) and the reuse of a freed digit, pinned
    with the strings written before the writer kept its free digits in a
    heap."""

    @pytest.mark.parametrize("smiles, want", [
        ("C1CC2CC3CC4CC5CC6CC7CC8CC9CC%10CC%11CC1C%11C%10C9C8C7C6C5C4C3C2",
         "C1CC2CC3CC4CC5CC6CC7CC8CC9CC%10CC%11CC1CC%11C%10C9C8C7C6C5C4C23"),
        ("C12C3C4C5C1C6C7C8C2C9C3C%10C4C%11C5C6C%12C7C%13C8C9C%10C%11C%12C%13",
         "C1C2C3C4C1C1C5C6C2C2C3C3C4C4C1C1C5C5C6C2C2C3C4C1C52"),
    ])
    def test_value_under_permutation(self, smiles, want):
        m = prep(smiles)
        rng = Random(len(smiles))
        assert [canonical_smiles(x) for x in (m, permuted(m, rng), permuted(m, rng))] \
            == [want] * 3


def union(*smiles: str) -> Molecule:
    """One filled molecule holding the given components side by side."""
    graph, _ = disjoint_union([fill_hydrogens(parse_smiles(s)[0]).graph for s in smiles])
    return Molecule(graph, {}, filled=True)


class TestDisconnected:
    """A molecule must be connected; one that is not is refused with a
    ChemError instead of being misread."""

    def test_two_heavy_components(self):
        with pytest.raises(ChemError, match="connected"):
            canonical_smiles(union("OCC=O", "C=O"))

    def test_stray_hydrogen_molecule(self):
        with pytest.raises(ChemError, match="hydrogen"):
            canonical_smiles(union("OCC=O", "[H][H]"))

    @pytest.mark.parametrize("second", ["C=O", "[H][H]"])
    def test_expand_refuses_a_disconnected_seed(self, formose_rules, second):
        with pytest.raises(ChemError):
            expand([union("OCC=O", second)], formose_rules, ExpansionConfig(iterations=1))


class TestNonBondLabel:
    """An edge label that is no bond symbol between two heavy atoms is
    refused with a ChemError naming the edge."""

    @pytest.mark.parametrize("via_fill", [False, True])
    def test_tilde_between_carbons(self, via_fill):
        g = LabeledGraph.from_parts(["C", "C", "H"], [(0, 1, "~"), (0, 2, "-")])
        m = fill_hydrogens(Molecule(g)) if via_fill else Molecule(g, {}, filled=True)
        with pytest.raises(ChemError, match=r"edge \(0, 1\) label '~'"):
            canonical_smiles(m)


class TestHydrogenBondLabel:
    """A bond to a hydrogen labelled other than ``-`` is refused with a
    ChemError naming the edge: methane with such a bond is no methane."""

    @pytest.mark.parametrize("label", ["~", "="])
    def test_fourth_hydrogen(self, label):
        g = LabeledGraph.from_parts(["C", "H", "H", "H", "H"],
                                    [(0, 1, "-"), (0, 2, "-"), (0, 3, "-"), (0, 4, label)])
        with pytest.raises(ChemError, match=rf"hydrogens; edge \(0, 4\) label '{label}'"):
            canonical_smiles(Molecule(g, {}, filled=True))

    def test_labels_that_sum_to_a_single_bond_each(self):
        # "=" and "~" add up to two single bonds; the "~" still counts.
        g = LabeledGraph.from_parts(["C", "H", "H", "H", "H"],
                                    [(0, 1, "-"), (0, 2, "="), (0, 3, "-"), (0, 4, "~")])
        with pytest.raises(ChemError, match=r"edge \(0, 4\) label '~'"):
            canonical_smiles(Molecule(g, {}, filled=True))


class TestBridgingHydrogen:
    """Each hydrogen must be bonded to exactly one heavy atom, not merely
    add up with the others to the heavy atoms' hydrogen counts."""

    @pytest.mark.parametrize("h3_edge", [[], [(2, 3, "-")]])
    def test_hydrogen_between_two_carbons(self, h3_edge):
        # H2 bridges C0 and C1; H3 is left alone or bonded to H2.
        g = LabeledGraph.from_parts(["C", "C", "H", "H"],
                                    [(0, 1, "-"), (0, 2, "-"), (1, 2, "-")] + h3_edge)
        with pytest.raises(ChemError, match="every hydrogen bonded to one heavy atom"):
            canonical_smiles(Molecule(g, {}, filled=True))


class TestInvariance:
    def test_50_permutations_each(self, corpus):
        rng = Random(20260816)
        assert len(corpus) >= 100
        for m in corpus:
            reference = canonical_smiles(m)
            for _ in range(50):
                assert canonical_smiles(permuted(m, rng)) == reference


class TestSeparationAndRoundtrip:
    def test_non_isomorphic_molecules_get_distinct_strings(self, corpus):
        named = [(canonical_smiles(m), m) for m in corpus]
        buckets: dict[tuple, list] = {}
        for canon, m in named:
            g = m.graph
            key = (g.node_count, g.edge_count,
                   tuple(sorted(g.node_labels)),
                   tuple(sorted(lbl for _, _, lbl in g.edges())))
            buckets.setdefault(key, []).append((canon, m))
        classes = 0
        for entries in buckets.values():
            reps: list = []  # (canon, molecule) per isomorphism class
            for canon, m in entries:
                for rcanon, rm in reps:
                    iso = isomorphic(m.graph, rm.graph)
                    same = canon == rcanon
                    assert iso == same, (canon, rcanon)
                    if iso:
                        break
                else:
                    reps.append((canon, m))
            classes += len(reps)
        assert classes >= 100  # corpus is genuinely diverse

    def test_roundtrip_reparses_to_isomorphic(self, corpus):
        for m in corpus:
            canon = canonical_smiles(m)
            mols = parse_smiles(canon)
            assert len(mols) == 1
            back = fill_hydrogens(mols[0])
            assert isomorphic(back.graph, m.graph), canon
            assert canonical_smiles(back) == canon

    def test_nadh_heavy_atom_counts(self):
        for smiles in (NADH, NADP):
            m = prep(smiles)
            heavy = sum(1 for v in m.graph.nodes()
                        if not m.graph.label(v).startswith("H"))
            assert heavy == 44


# Bracket atoms outside ``data/canonical_strings.json``: charges of
# magnitude two or more, charges with a class, hydrogen counts with a
# charge, and charge or class text that parses to a shorter label.  Each
# row is the input, the node labels the parser gives, then the canonical
# SMILES and canonical key of the filled molecule.
BRACKET_ATOMS = [
    ('[O-2]', ['O-2'],
     '[O-2]',
     '1|O-2|'),
    ('[S-2]', ['S-2'],
     '[S-2]',
     '1|S-2|'),
    ('C[S+2]C', ['C', 'S+2', 'C'],
     'C[S+2]C',
     '9|C,C,H,H,H,H,H,H,S+2|0-2:-;0-3:-;0-4:-;0-8:-;1-5:-;1-6:-;1-7:-;1-8:-'),
    ('[N-3]', ['N-3'],
     '[N-3]',
     '1|N-3|'),
    ('[Fe+3]', ['Fe+3'],
     '[Fe+3]',
     '1|Fe+3|'),
    ('[Cu+2]', ['Cu+2'],
     '[Cu+2]',
     '1|Cu+2|'),
    ('[C-10]', ['C-10'],
     '[C-10]',
     '1|C-10|'),
    ('C[O-:7]', ['C', 'O-:7'],
     'C[O-:7]',
     '5|C,H,H,H,O-:7|0-1:-;0-2:-;0-3:-;0-4:-'),
    ('[O-:12]C(=O)C', ['O-:12', 'C', 'O', 'C'],
     'CC([O-:12])=O',
     '7|C,C,H,H,H,O,O-:12|0-1:-;0-2:-;0-3:-;0-4:-;1-5:=;1-6:-'),
    ('CC[N+:5](C)(C)C', ['C', 'C', 'N+:5', 'C', 'C', 'C'],
     'CC[N+:5](C)(C)C',
     '20|C,C,C,C,C,H,H,H,H,H,H,H,H,H,H,H,H,H,H,N+:5|0-1:-;0-5:-;0-6:-;0-7:-;1-8:-;1-9:-;1-19:-;2-10:-;2-11:-;2-12:-;2-19:-;3-13:-;3-14:-;3-15:-;3-19:-;4-16:-;4-17:-;4-18:-;4-19:-'),
    ('c1cc[nH+:4]cc1', ['c', 'c', 'c', 'n+:4', 'c', 'c'],
     'c1cc[nH+:4]cc1',
     '12|H,H,H,H,H,H,c,c,c,c,c,n+:4|0-6:-;1-7:-;2-8:-;3-9:-;4-10:-;5-11:-;6-7::;6-8::;7-9::;8-10::;9-11::;10-11::'),
    ('[Cl-:9]', ['Cl-:9'],
     '[Cl-:9]',
     '1|Cl-:9|'),
    ('[Fe+2:3]', ['Fe+2:3'],
     '[Fe+2:3]',
     '1|Fe+2:3|'),
    ('[S-2:10]', ['S-2:10'],
     '[S-2:10]',
     '1|S-2:10|'),
    ('C[NH2+]C', ['C', 'N+', 'C'],
     'C[NH2+]C',
     '11|C,C,H,H,H,H,H,H,H,H,N+|0-2:-;0-3:-;0-4:-;0-10:-;1-5:-;1-6:-;1-7:-;1-10:-;8-10:-;9-10:-'),
    ('[SH-]', ['S-'],
     '[SH-]',
     '2|H,S-|0-1:-'),
    ('c1cc[nH+]cc1', ['c', 'c', 'c', 'n+', 'c', 'c'],
     'c1cc[nH+]cc1',
     '12|H,H,H,H,H,H,c,c,c,c,c,n+|0-6:-;1-7:-;2-8:-;3-9:-;4-10:-;5-11:-;6-7::;6-8::;7-9::;8-10::;9-11::;10-11::'),
    ('[PH4+]', ['P+'],
     '[PH4+]',
     '5|H,H,H,H,P+|0-4:-;1-4:-;2-4:-;3-4:-'),
    ('[NH+](C)(C)C', ['N+', 'C', 'C', 'C'],
     'C[NH+](C)C',
     '14|C,C,C,H,H,H,H,H,H,H,H,H,H,N+|0-3:-;0-4:-;0-5:-;0-13:-;1-6:-;1-7:-;1-8:-;1-13:-;2-9:-;2-10:-;2-11:-;2-13:-;12-13:-'),
    ('[NH3+:2]', ['N+:2'],
     '[NH3+:2]',
     '4|H,H,H,N+:2|0-3:-;1-3:-;2-3:-'),
    ('[CH3-:3]', ['C-:3'],
     '[CH3-:3]',
     '4|C-:3,H,H,H|0-1:-;0-2:-;0-3:-'),
    ('[OH2+]', ['O+'],
     '[OH2+]',
     '3|H,H,O+|0-2:-;1-2:-'),
    ('[NH2+2]', ['N+2'],
     '[NH2+2]',
     '3|H,H,N+2|0-2:-;1-2:-'),
    ('[OH-:6]C', ['O-:6', 'C'],
     'C[OH-:6]',
     '6|C,H,H,H,H,O-:6|0-1:-;0-2:-;0-3:-;0-5:-;4-5:-'),
    ('[C+0]', ['C'],
     '[C]',
     '1|C|'),
    ('[N+1](C)(C)(C)C', ['N+', 'C', 'C', 'C', 'C'],
     'C[N+](C)(C)C',
     '17|C,C,C,C,H,H,H,H,H,H,H,H,H,H,H,H,N+|0-4:-;0-5:-;0-6:-;0-16:-;1-7:-;1-8:-;1-9:-;1-16:-;2-10:-;2-11:-;2-12:-;2-16:-;3-13:-;3-14:-;3-15:-;3-16:-'),
    ('[O-1:01]C', ['O-:1', 'C'],
     'C[O-:1]',
     '5|C,H,H,H,O-:1|0-1:-;0-2:-;0-3:-;0-4:-'),
    ('[CH2+2]', ['C+2'],
     '[CH2+2]',
     '3|C+2,H,H|0-1:-;0-2:-'),
]


class TestBracketAtomText:
    @pytest.mark.parametrize("smiles, labels, canon, key", BRACKET_ATOMS,
                             ids=[row[0] for row in BRACKET_ATOMS])
    def test_pinned(self, smiles, labels, canon, key):
        (m,) = parse_smiles(smiles)
        assert list(m.graph.node_labels) == labels
        filled = perceive_aromaticity(fill_hydrogens(m))
        assert canonical_smiles(filled) == canon
        assert canonical_key(filled.graph) == key
        (back,) = parse_smiles(canon)
        assert canonical_smiles(perceive_aromaticity(fill_hydrogens(back))) == canon
