"""Ring perception (path-graph collapse) and rule-based aromaticity."""

from __future__ import annotations

from random import Random

import pytest

from grw import LabeledGraph, disjoint_union
from grw.chem import (KekulizationError, Molecule, all_cycles, canonical_smiles,
                      fill_hydrogens, kekulize, parse_molecule,
                      perceive_aromaticity, perceive_rings, sanity_check)

from conftest import assert_same_as_rebuild, prep
from oracles import exhaustive_simple_cycles, random_graph


def k4() -> LabeledGraph:
    return LabeledGraph.from_parts(
        ["A"] * 4,
        [(u, v, "-") for u in range(4) for v in range(u + 1, 4)])


class TestAllCycles:
    def test_acyclic(self):
        p = LabeledGraph.from_parts(["A"] * 4,
                                    [(0, 1, "-"), (1, 2, "-"), (1, 3, "-")])
        assert all_cycles(p) == []

    def test_k4_has_seven(self):
        cycles = all_cycles(k4())
        assert len(cycles) == 7
        assert sorted(len(c) for c in cycles) == [3, 3, 3, 3, 4, 4, 4]
        assert cycles == exhaustive_simple_cycles(k4())

    def test_max_size_prunes(self):
        assert len(all_cycles(k4(), max_size=3)) == 4

    def test_canonical_orientation(self):
        square = LabeledGraph.from_parts(
            ["A"] * 4, [(0, 1, "-"), (1, 2, "-"), (2, 3, "-"), (0, 3, "-")])
        assert all_cycles(square) == [(0, 1, 2, 3)]

    def test_matches_oracle_on_random_graphs(self):
        rng = Random(20260816)
        for _ in range(60):
            g = random_graph(rng, 8, ["A"], ["-"], edge_p=0.35)
            assert all_cycles(g) == exhaustive_simple_cycles(g)

    def test_max_size_matches_oracle(self):
        rng = Random(7)
        for _ in range(30):
            g = random_graph(rng, 8, ["A"], ["-"], edge_p=0.4)
            for bound in (3, 4, 6):
                assert all_cycles(g, max_size=bound) == \
                    exhaustive_simple_cycles(g, max_size=bound)


class TestPerceiveRings:
    def test_benzene_single_ring(self):
        m = fill_hydrogens(parse_molecule("c1ccccc1"))
        rings = perceive_rings(m)
        assert len(rings) == 1 and len(rings[0]) == 6

    def test_naphthalene_three_rings(self):
        m = fill_hydrogens(parse_molecule("c1ccc2ccccc2c1"))
        rings = perceive_rings(m)
        assert sorted(len(r) for r in rings) == [6, 6, 10]

    def test_naphthalene_bounded(self):
        m = fill_hydrogens(parse_molecule("c1ccc2ccccc2c1"))
        assert sorted(len(r) for r in perceive_rings(m, max_size=6)) == [6, 6]

    def test_hydrogens_do_not_create_rings(self):
        m = fill_hydrogens(parse_molecule("C1CC1"))
        assert len(perceive_rings(m)) == 1


class TestKekulize:
    def test_benzene_alternates(self):
        m = fill_hydrogens(parse_molecule("c1ccccc1"))
        kek = kekulize(m)
        bonds = sorted(lbl for _, _, lbl in kek.graph.edges()
                       if lbl in ("-", "="))
        ring_bonds = [lbl for u, v, lbl in kek.graph.edges()
                      if kek.graph.label(u) != "H" and kek.graph.label(v) != "H"]
        assert sorted(ring_bonds) == ["-", "-", "-", "=", "=", "="]
        assert not any(lbl == ":" for lbl in bonds)
        assert sanity_check(kek) == []

    def test_pyrrole_nitrogen_contributes_lone_pair(self):
        m = fill_hydrogens(parse_molecule("c1cc[nH]c1"))
        kek = kekulize(m)
        n = next(v for v in kek.graph.nodes()
                 if kek.graph.label(v).startswith("N"))
        assert all(lbl == "-" for lbl in kek.graph.neighbors(n).values())
        assert sanity_check(kek) == []

    def test_odd_all_carbon_ring_fails(self):
        g = LabeledGraph.from_parts(
            ["c"] * 5 + ["H"] * 5,
            [(i, (i + 1) % 5, ":") for i in range(5)] +
            [(i, i + 5, "-") for i in range(5)])
        from grw.chem import Molecule
        with pytest.raises(KekulizationError):
            kekulize(Molecule(g, {}, filled=True))

    def test_long_ring_kekulizes_without_recursion(self):
        # One matched pair per step: a recursive search would need about
        # 1 000 frames here and overrun the default recursion limit.
        kek = kekulize(fill_hydrogens(parse_molecule("c1" + "c" * 1998 + "c1")))
        doubles = [(u, v) for u, v, lbl in kek.graph.edges() if lbl == "="]
        assert doubles == [(v, v + 1) for v in range(0, 2000, 2)]
        assert sanity_check(kek) == []

    def test_long_odd_ring_fails_cleanly(self):
        with pytest.raises(KekulizationError):
            kekulize(fill_hydrogens(parse_molecule("c1" + "c" * 1997 + "c1")))

    def test_leaves_plain_molecules_alone(self):
        m = fill_hydrogens(parse_molecule("CCO"))
        kek = kekulize(m)
        assert list(kek.graph.edges()) == list(m.graph.edges())


class TestPerceiveAromaticity:
    def bond_set(self, m):
        return sorted(lbl for u, v, lbl in m.graph.edges()
                      if m.graph.label(u) != "H" and m.graph.label(v) != "H")

    def test_kekule_benzene_becomes_aromatic(self):
        m = perceive_aromaticity(fill_hydrogens(parse_molecule("C1=CC=CC=C1")))
        assert self.bond_set(m) == [":"] * 6
        assert canonical_smiles(m) == "c1ccccc1"

    @pytest.mark.parametrize("others", [("[H][H]",), ("CC",), ("[H][H]", "[H][H]")])
    def test_disconnected_molecule_is_perceived_per_part(self, others):
        # Benzene plus H2, or plus ethane, has one bond fewer than atoms,
        # like a tree, yet holds a ring; with two H2 it has two fewer.
        parts = [fill_hydrogens(parse_molecule(s)) for s in ("C1=CC=CC=C1", *others)]
        union, _ = disjoint_union([m.graph for m in parts])
        got = perceive_aromaticity(Molecule(union, {}, filled=True))
        want, _ = disjoint_union([perceive_aromaticity(m).graph for m in parts])
        assert got.graph == want
        assert got.graph.node_labels[:6] == ("c",) * 6

    def test_cyclohexane_untouched(self):
        m = fill_hydrogens(parse_molecule("C1CCCCC1"))
        out = perceive_aromaticity(m)
        assert self.bond_set(out) == ["-"] * 6

    def test_cyclobutadiene_not_aromatic(self):
        m = perceive_aromaticity(fill_hydrogens(parse_molecule("C1=CC=C1")))
        assert ":" not in self.bond_set(m)  # 4 pi electrons fail 4n+2

    def test_cyclooctatetraene_ring_too_large(self):
        m = perceive_aromaticity(
            fill_hydrogens(parse_molecule("C1=CC=CC=CC=C1")))
        assert ":" not in self.bond_set(m)

    @pytest.mark.parametrize("smiles", [
        "c1ccncc1", "c1cc[nH]c1", "c1ccoc1", "c1ccsc1", "c1cnc[nH]1",
    ])
    def test_heteroaromatics_stay_aromatic(self, smiles):
        m = prep(smiles)
        assert ":" in self.bond_set(m)
        assert sanity_check(m) == []

    @pytest.mark.parametrize("smiles", [
        "c1ccccc1O", "C1=CC=CC=C1", "c1ccc2ccccc2c1", "c1cc[nH]c1", "OCC=O",
    ])
    def test_rebuilt_graphs_match_a_rebuild(self, smiles):
        filled = fill_hydrogens(parse_molecule(smiles))
        for m in (filled, kekulize(filled), perceive_aromaticity(filled)):
            assert_same_as_rebuild(m.graph)

    def test_exocyclic_carbonyl_blocks_aromaticity(self):
        # Cyclohexadienone: the sp2 ring carbon holding C=O contributes no
        # pi electron, so the ring must come out non-aromatic.
        m = perceive_aromaticity(
            fill_hydrogens(parse_molecule("O=C1C=CC=CC1")))
        assert ":" not in self.bond_set(m)

    @pytest.mark.parametrize("smiles, canonical", [
        ("c1cc[o+]cc1", "c1cc[o+]cc1"),
        ("C1=CC=[O+]C=C1", "c1cc[o+]cc1"),
        ("c1cc[s+]cc1", "c1cc[s+]cc1"),
        ("c1cc[nH+]cc1", "c1cc[nH+]cc1"),
    ])
    def test_cationic_ring_atom_donates_one_electron(self, smiles, canonical):
        # O+ and S+ with a double bond donate one pi electron, like N+.
        m = prep(smiles)
        assert self.bond_set(m).count(":") == 6
        assert canonical_smiles(m) == canonical

    def test_nadh_vs_nad_plus(self):
        from test_canonical import NADH, NADP
        nadh, nadp = prep(NADH), prep(NADP)
        # NADH: adenine stays aromatic while the nicotinamide ring is a
        # plain diene around its sp3 carbon.
        assert "n" in canonical_smiles(nadh)
        assert "C1=CN(" in canonical_smiles(nadh)
        # NAD+: the nicotinamide nitrogen is an aromatic [n+].
        assert "[n+]" in canonical_smiles(nadp)

    def test_idempotent_on_corpus_samples(self):
        for smiles in ("c1ccccc1", "C1=CC=CC=C1", "CCO", "c1ccc2ccccc2c1"):
            m = prep(smiles)
            again = perceive_aromaticity(m)
            assert canonical_smiles(again) == canonical_smiles(m)
