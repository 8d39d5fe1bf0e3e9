"""Canonical SMILES: invariance, separation, roundtrip, frozen examples."""

from __future__ import annotations

from random import Random

import pytest

from grw.chem import canonical_smiles, fill_hydrogens, parse_smiles
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
        from grw.chem import ChemError
        (m,) = parse_smiles("C")
        with pytest.raises(ChemError):
            canonical_smiles(m)


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
