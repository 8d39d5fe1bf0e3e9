"""Reaction-network expansion: growth numbers, determinism, exports."""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from grw import (NoEdge, Pattern, RuleEdge, RuleGraph, RuleNode, apply, canonical_key,
                 connected_components, disjoint_union, find_monomorphisms, network)
from grw.chem import (ChemError, Molecule, canonical_smiles, fill_hydrogens,
                      load_energy_model, molecular_formula, parse_molecule,
                      perceive_aromaticity, sanity_check)
from grw.network import (ExpansionConfig, ReactionNetwork, _compile_rule, expand,
                         to_dot, to_gml)

from conftest import asset_text, load_rule, prep
from oracles import intermolecular_matches, naive_expand

FORMOSE_STATS = [(0, 2, 0), (1, 3, 1), (2, 5, 4), (3, 9, 10),
                 (4, 37, 44), (5, 302, 371)]


class TestFormoseGrowth:
    def test_molecule_and_reaction_counts(self, formose_net5):
        assert formose_net5.stats() == FORMOSE_STATS

    def test_elapsed_within_budget(self, formose_net5):
        assert sum(formose_net5.elapsed.values()) < 60.0

    def test_seed_iteration_is_zero(self, formose_net5):
        assert formose_net5.molecules["C(CO)=O"][1] == 0
        assert formose_net5.molecules["C=O"][1] == 0

    def test_glycolaldehyde_enol_appears_first(self, formose_net5):
        assert formose_net5.molecules["C(=CO)O"][1] == 1

    @pytest.mark.slow
    def test_sixth_iteration(self, formose_net6):
        assert formose_net6.stats()[6] == (6, 10572, 11239)
        assert sum(formose_net6.elapsed.values()) < 600.0


class TestNetworkInvariants:
    def test_stats_monotonic(self, formose_net5):
        rows = formose_net5.stats()
        for (i0, m0, r0), (i1, m1, r1) in zip(rows, rows[1:]):
            assert i1 == i0 + 1 and m1 >= m0 and r1 >= r0

    def test_reactions_reference_known_molecules(self, formose_net5):
        known = set(formose_net5.molecules)
        for rxn in formose_net5.reactions:
            assert set(rxn.reactants) <= known
            assert set(rxn.products) <= known

    def test_atoms_conserved_per_reaction(self, formose_rules, formose_inputs):
        net = expand(formose_inputs, formose_rules,
                     ExpansionConfig(iterations=3))

        def total(canons):
            counts: Counter = Counter()
            for c in canons:
                counts.update(molecular_formula(net.molecules[c][0]))
            return counts

        for rxn in net.reactions:
            assert total(rxn.reactants) == total(rxn.products)

    def test_molecules_sane_and_keyed_by_own_canon(self, formose_net5):
        for canon, (mol, _) in formose_net5.molecules.items():
            assert not sanity_check(mol)
            assert canonical_smiles(mol) == canon

    def test_canon_keys_reparse_to_themselves(self, formose_net5):
        for canon in formose_net5.molecules:
            assert canonical_smiles(prep(canon)) == canon

    def test_prefix_stability(self, formose_rules, formose_inputs):
        short = expand(formose_inputs, formose_rules,
                       ExpansionConfig(iterations=2))
        long = expand(formose_inputs, formose_rules,
                      ExpansionConfig(iterations=3))
        assert short.stats() == long.stats()[:3]

    def test_rerun_is_byte_identical(self, formose_rules, formose_inputs):
        nets = [expand(formose_inputs, formose_rules,
                       ExpansionConfig(iterations=3)) for _ in range(2)]
        assert to_dot(nets[0]) == to_dot(nets[1])
        assert to_gml(nets[0]) == to_gml(nets[1])
        assert [r.signature for r in nets[0].reactions] == \
               [r.signature for r in nets[1].reactions]


class TestSharedStorage:
    """``expand`` stores molecules through one graph pool: equal rows and
    tuples are one object, so stored molecules must stay read only."""

    def test_retained_memory_per_molecule(self, formose_rules, formose_inputs):
        cfg = ExpansionConfig(iterations=5)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            net = expand(formose_inputs, formose_rules, cfg)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert net.molecule_count == 302
        assert retained / net.molecule_count < 4096

    def test_stored_molecules_share_rows(self, formose_net5):
        graphs = [m.graph for m, _ in formose_net5.molecules.values()]
        rows = [g.neighbors(v) for g in graphs for v in g.nodes()]
        assert len({id(r) for r in rows}) < len(rows) / 10
        assert len({id(g.ext_ids) for g in graphs}) == \
            len({g.node_count for g in graphs})

    def test_layers_leave_shared_mappings_unchanged(self, formose_rules,
                                                    formose_inputs):
        net = expand(formose_inputs, formose_rules,
                     ExpansionConfig(iterations=4))
        mols = [m for m, _ in net.molecules.values()]

        def snapshot():
            return [[tuple(m.graph.neighbors(v).items()) for v in m.graph.nodes()]
                    for m in mols]

        before = snapshot()
        for m in mols:
            g = m.graph
            fill_hydrogens(m)
            perceive_aromaticity(m)
            sanity_check(m)
            canonical_smiles(m)
            canonical_key(g)
            g.with_labels({0: "Q"})
            host, _ = disjoint_union([g, g])
            for rule in formose_rules:
                pattern, _ = rule.left_pattern()
                for match in find_monomorphisms(pattern, host)[:4]:
                    for comp, _ in connected_components(apply(rule, host, match).graph):
                        sanity_check(Molecule(comp, {}, filled=True))
        assert snapshot() == before


# Two unsound rules, built without check_chem_rule: one gives a carbonyl
# oxygen a third bond, one cuts an aromatic n:c bond out of its ring.
PROTONATE = RuleGraph("protonate carbonyl",
                      [RuleNode(1, "O", "O"), RuleNode(2, "C", "C"), RuleNode(3, None, "H")],
                      [RuleEdge(1, 2, "=", "="), RuleEdge(1, 3, None, "-")])
RING_CUT = RuleGraph("ring cut", [RuleNode(1, "n", "n"), RuleNode(2, "c", "c")],
                     [RuleEdge(1, 2, ":", None)])


class TestProductDiscards:
    """A product that fails perception or the sanity check is logged and
    its reaction dropped; the expansion goes on."""

    def expand_logged(self, caplog, cap):
        seeds = [prep("OCC=O"), prep("C=O"), prep("c1ccncc1")]
        rules = [load_rule("keto_enol.gml"), PROTONATE, RING_CUT]
        with caplog.at_level("WARNING", logger="grw.network"):
            net = expand(seeds, rules, ExpansionConfig(iterations=1, max_atoms=cap))
        assert {rec.name for rec in caplog.records} <= {"grw.network"}
        return net, [rec.getMessage() for rec in caplog.records]

    def test_sanity_and_kekulization_discards(self, caplog):
        net, lines = self.expand_logged(caplog, None)
        assert lines == [
            "rule protonate carbonyl: discarding product "
            "(atom 3 (O) has bond-order sum 3, allowed valences (2,))",
            "rule protonate carbonyl: discarding product "
            "(atom 1 (O) has bond-order sum 3, allowed valences (2,))",
            "rule ring cut: discarding product (node 2 (c) needs 2 extra bonds; cannot kekulize)",
            "rule ring cut: discarding product (node 3 (n) needs 2 extra bonds; cannot kekulize)",
        ]
        assert net.stats() == [(0, 3, 0), (1, 4, 1)]
        assert [r.signature for r in net.reactions] == [
            ("Keto-Enol Isomerization", ("C(CO)=O",), ("C(=CO)O",))]
        assert {c: it for c, (_, it) in net.molecules.items()} == {
            "C(CO)=O": 0, "C=O": 0, "c1ccncc1": 0, "C(=CO)O": 1}

    def test_atom_cap_comes_before_perception(self, caplog):
        # Only the protonated formaldehyde (5 atoms) fits under the cap; the
        # cut pyridine is built, found too large and dropped unperceived.
        net, lines = self.expand_logged(caplog, 5)
        assert lines == ["rule protonate carbonyl: discarding product "
                         "(atom 1 (O) has bond-order sum 3, allowed valences (2,))"]
        assert net.stats() == [(0, 3, 0), (1, 3, 0)]


class TestProcessMatchBoundary:
    """The benchmark's formose items are calls of ``network._process_match``:
    it swaps the module attribute for a wrapper that forwards positional
    arguments only.  ``expand`` must keep calling it that way, once per
    match, over-cap matches included."""

    @pytest.mark.parametrize("iterations, cap, calls, applied", [
        (5, None, 418, 418), (5, 32, 340, 160), (8, 32, 8922, 538)])
    def test_calls_per_match(self, monkeypatch, formose_rules, formose_inputs,
                             iterations, cap, calls, applied):
        counts = Counter()
        inner, inner_apply = network._process_match, network.apply_rule

        def item(*args):
            counts["calls"] += 1
            return inner(*args)

        def counted_apply(*args):
            counts["applied"] += 1
            return inner_apply(*args)

        monkeypatch.setattr(network, "_process_match", item)
        monkeypatch.setattr(network, "apply_rule", counted_apply)
        expand(formose_inputs, formose_rules,
               ExpansionConfig(iterations=iterations, max_atoms=cap))
        assert counts == {"calls": calls, "applied": applied}


class TestConfig:
    def test_no_rules_no_reactions(self, formose_inputs):
        net = expand(formose_inputs, [], ExpansionConfig(iterations=2))
        assert net.molecule_count == 2 and net.reaction_count == 0

    def test_zero_iterations_keeps_seeds_only(self, formose_rules,
                                              formose_inputs):
        net = expand(formose_inputs, formose_rules,
                     ExpansionConfig(iterations=0))
        assert net.stats() == [(0, 2, 0)]

    def test_insane_seed_rejected_at_entry(self, formose_rules, formose_inputs):
        # A seed is accepted as a product is: its sanity violations raise.
        seed = fill_hydrogens(parse_molecule("C(C)(C)(C)(C)C"))
        with pytest.raises(ChemError, match=r"^atom 0 \(C\) has bond-order sum 5"):
            expand(formose_inputs + [seed], formose_rules, ExpansionConfig(iterations=0))

    def test_unfilled_seed_is_refused_for_its_missing_hydrogens(self):
        with pytest.raises(ChemError) as err:
            expand([parse_molecule("CC")], [], ExpansionConfig(iterations=0))
        assert str(err.value) == "canonical_smiles requires a hydrogen-filled molecule"

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            ExpansionConfig(iterations=-1)

    def test_bad_max_atoms_rejected(self):
        with pytest.raises(ValueError):
            ExpansionConfig(iterations=1, max_atoms=0)

    def test_max_atoms_drops_oversized_reactions(self, formose_rules,
                                                 formose_inputs):
        net = expand(formose_inputs, formose_rules,
                     ExpansionConfig(iterations=2, max_atoms=8))
        assert net.stats() == [(0, 2, 0), (1, 3, 1), (2, 3, 2)]
        assert all(m.atom_count <= 8 for m, _ in net.molecules.values())


@pytest.fixture(scope="module")
def da_net(diels_alder_rule):
    return expand([prep("CC(=C)C=C"), prep("CC=C")], [diels_alder_rule],
                  ExpansionConfig(iterations=1))


@pytest.fixture(scope="module")
def energy_net(formose_rules, formose_inputs):
    model = load_energy_model(asset_text("energy_demo.tsv"))
    return expand(formose_inputs, formose_rules,
                  ExpansionConfig(iterations=2, energy_model=model))


class TestDielsAlderNetwork:
    """Isoprene + propene: the cross reaction gives the two methyl-placement
    isomers, and isoprene also dimerizes with itself (four limonene-like
    products), all in one iteration."""

    def test_counts(self, da_net):
        assert da_net.stats() == [(0, 2, 0), (1, 8, 6)]

    def test_cross_products(self, da_net):
        cross = {tuple(r.products) for r in da_net.reactions
                 if set(r.reactants) == {"C=CC", "C=CC(=C)C"}}
        assert cross == {("CC1=CCC(C)CC1",), ("CC1=CCCC(C)C1",)}

    def test_self_dimerization(self, da_net):
        dimers = [r for r in da_net.reactions
                  if r.reactants == ("C=CC(=C)C", "C=CC(=C)C")]
        assert len(dimers) == 4

    def test_dot_export_shape(self, da_net):
        dot = to_dot(da_net)
        assert dot.count("[label=") == 8
        assert dot.count("[xlabel=") == 6
        assert dot.startswith("digraph RN {") and dot.endswith("}")


class TestEnergyAwareExpansion:
    def test_keto_enol_pair_is_antisymmetric(self, energy_net):
        pair = {r.reactants: r for r in energy_net.reactions
                if {r.reactants, r.products} ==
                {("C(CO)=O",), ("C(=CO)O",)}}
        fwd, rev = pair[("C(CO)=O",)], pair[("C(=CO)O",)]
        assert fwd.delta_e == -rev.delta_e == 5.5
        assert abs(fwd.rate * rev.rate - 1.0) < 1e-12

    def test_exothermic_reactions_run_faster(self, energy_net):
        for rxn in energy_net.reactions:
            if rxn.delta_e < 0:
                assert rxn.rate > 1.0
            elif rxn.delta_e > 0:
                assert rxn.rate < 1.0

    def test_rates_default_to_unity_without_model(self, formose_net5):
        assert all(r.rate == 1.0 and r.delta_e == 0.0
                   for r in formose_net5.reactions)


class TestBetaLactamOpening:
    """Serine-hydrolase style ring opening: the strained amide is attacked
    by the class-tagged alcohol while the class-tagged amine takes the
    proton, leaving a tetrahedral anion and an ammonium."""

    def test_single_recorded_reaction(self):
        rule = load_rule("beta_lactamase.gml")
        seeds = [prep("O=C1CCN1"), prep("[CH3:1]O"), prep("[CH3:1]N")]
        net = expand(seeds, [rule], ExpansionConfig(iterations=1))
        assert net.stats() == [(0, 3, 0), (1, 5, 1)]
        (rxn,) = net.reactions
        assert rxn.rule_id == "3.5.2.6-M0002-S01"
        assert rxn.reactants == ("C1CNC1=O", "[CH3:1]N", "[CH3:1]O")
        assert rxn.products == ("C1CNC1([O-])O[CH3:1]", "[CH3:1][NH3+]")
        assert rxn.rate == 1.0


FORMOSE_DIGEST = "c2fcf5be9b9a743182cf3049bc99b49edc95f533d15d64d6b7f61e781d949ddd"
# The same run with the demo energy model, so every rate and energy
# difference is in the exports too.
FORMOSE_ENERGY_DIGEST = "bb5adc0c402f7223bdb9f6301b8602e69fafe34df9bcec93ad69e7e044c33037"

# Formose to iteration 5 in a fresh interpreter, printing the export digest.
FORMOSE_SCRIPT = """
import hashlib
from importlib import resources
from grw import parse_gml_rule
from grw.chem import check_chem_rule, fill_hydrogens, parse_smiles, perceive_aromaticity
from grw.network import ExpansionConfig, expand, to_dot, to_gml
assets = resources.files("grw") / "assets"
rules = [check_chem_rule(parse_gml_rule((assets / name).read_text()))[1]
         for name in ("keto_enol.gml", "keto_enol_reverse.gml", "aldol.gml", "aldol_reverse.gml")]
seeds = [perceive_aromaticity(fill_hydrogens(parse_smiles(s)[0])) for s in ("OCC=O", "C=O")]
net = expand(seeds, rules, ExpansionConfig(iterations=5))
print(hashlib.sha256((to_dot(net) + to_gml(net)).encode()).hexdigest())
"""


class TestExports:
    def test_formose_exports_are_pinned(self, formose_net5):
        digest = hashlib.sha256(
            (to_dot(formose_net5) + to_gml(formose_net5)).encode()).hexdigest()
        assert digest == FORMOSE_DIGEST

    def test_formose_energy_exports_are_pinned(self, formose_rules, formose_inputs):
        model = load_energy_model(asset_text("energy_demo.tsv"))
        net = expand(formose_inputs, formose_rules,
                     ExpansionConfig(iterations=5, energy_model=model))
        digest = hashlib.sha256((to_dot(net) + to_gml(net)).encode()).hexdigest()
        assert digest == FORMOSE_ENERGY_DIGEST

    @pytest.mark.parametrize("hash_seed", ["0", "12345"])
    def test_formose_exports_ignore_the_hash_seed(self, hash_seed):
        """String hashing, and so the order of every set and dict keyed by
        strings or tuples of them, changes with ``PYTHONHASHSEED``; the
        exports must not."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", FORMOSE_SCRIPT], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == FORMOSE_DIGEST

    def test_empty_dot(self):
        assert to_dot(ReactionNetwork()) == "digraph RN {\n}"

    def test_dot_wires_reactants_and_products(self, formose_rules,
                                              formose_inputs):
        net = expand(formose_inputs, formose_rules,
                     ExpansionConfig(iterations=1))
        dot = to_dot(net)
        assert "digraph RN {" in dot
        assert "-> r0;" in dot and "r0 ->" in dot
        assert dot.count("shape=box") == 1 and dot.count("shape=point") == 1

    def test_gml_roundtrips_counts(self, formose_rules, formose_inputs):
        net = expand(formose_inputs, formose_rules,
                     ExpansionConfig(iterations=1))
        gml = to_gml(net)
        assert gml.startswith("graph [\n  directed 1\n")
        assert gml.count("node [") == net.molecule_count + net.reaction_count
        edge_lines = gml.count("edge [")
        arcs = sum(len(r.reactants) + len(r.products) for r in net.reactions)
        assert edge_lines == arcs

    @pytest.mark.parametrize("rule_id", ['keep "C"', "keep\nC"])
    def test_gml_refuses_a_rule_id_it_cannot_quote(self, rule_id):
        rule = RuleGraph(rule_id, [RuleNode(1, "C", "C")], [])
        net = expand([prep("CC")], [rule], ExpansionConfig(iterations=1))
        assert net.reaction_count == 1
        with pytest.raises(ValueError, match="a reaction node has a label"):
            to_gml(net)

    def test_gml_checks_each_rule_id_once(self, monkeypatch, formose_net5):
        import grw.network
        checked = []
        real = grw.network._gml_string
        monkeypatch.setattr(grw.network, "_gml_string",
                            lambda label, owner: checked.append(label) or real(label, owner))
        to_gml(formose_net5)
        assert sorted(checked) == sorted({r.rule_id for r in formose_net5.reactions})


# Formose at a 32-atom cap to iteration 8: most aldol matches are sized out
# by the rule's product table before anything is built.
FORMOSE_CAP_STATS = [(0, 2, 0), (1, 3, 1), (2, 5, 4), (3, 9, 10), (4, 31, 38),
                     (5, 74, 130), (6, 123, 263), (7, 139, 420), (8, 140, 455)]
FORMOSE_CAP_DIGEST = "3ff74f0085eec1ee5d20f99a6a350b31f7feb9d248a0f5f83852c54377f961ba"


def without_noedge(rule: RuleGraph) -> RuleGraph:
    return RuleGraph(rule.rule_id, rule.nodes, rule.edges,
                     [c for c in rule.constraints if not isinstance(c, NoEdge)],
                     rule.wildcard)


class TestCappedExpansion:
    def test_formose_cap_is_pinned(self, formose_rules, formose_inputs):
        net = expand(formose_inputs, formose_rules,
                     ExpansionConfig(iterations=8, max_atoms=32))
        assert net.stats() == FORMOSE_CAP_STATS
        digest = hashlib.sha256((to_dot(net) + to_gml(net)).encode()).hexdigest()
        assert digest == FORMOSE_CAP_DIGEST

    @pytest.mark.parametrize("cap", [None, 6, 8, 10, 12])
    def test_formose_agrees_with_naive_expander(self, formose_rules,
                                                formose_inputs, cap):
        net = expand(formose_inputs, formose_rules,
                     ExpansionConfig(iterations=4, max_atoms=cap))
        molecules, reactions = naive_expand(formose_inputs, formose_rules, 4, cap)
        assert {c: it for c, (_, it) in net.molecules.items()} == molecules
        assert {(r.iteration, r.signature) for r in net.reactions} == reactions
        assert len(net.reactions) == len(reactions)

    @pytest.mark.parametrize("cap", [None, 22, 35])
    def test_diels_alder_agrees_with_naive_expander(self, diels_alder_rule, cap):
        seeds = [prep("CC(=C)C=C"), prep("CC=C")]
        net = expand(seeds, [diels_alder_rule],
                     ExpansionConfig(iterations=2, max_atoms=cap))
        molecules, reactions = naive_expand(seeds, [diels_alder_rule], 2, cap)
        assert {c: it for c, (_, it) in net.molecules.items()} == molecules
        assert {(r.iteration, r.signature) for r in net.reactions} == reactions
        assert len(net.reactions) == len(reactions)

    def test_cross_component_noedge_changes_nothing(self, formose_rules, formose_net5):
        # Aldol forms 4-5 and 1-6 between its two components.  Its pattern
        # guards both; its component patterns leave the guards out.
        aldol = formose_rules[2]
        assert aldol.rule_id == "Aldol Condensation"
        pattern, pid = aldol.left_pattern()
        guards = [c for c in pattern.constraints if isinstance(c, NoEdge)]
        assert guards == [NoEdge(pid[4], pid[5]), NoEdge(pid[1], pid[6])]
        assert not any(isinstance(c, NoEdge)
                       for comp in _compile_rule(aldol).components for c in comp.constraints)
        # On a union of two reactants the guards reject no match.
        bare = Pattern(pattern.graph, [c for c in pattern.constraints if c not in guards])
        graphs = [m.graph for m, it in formose_net5.molecules.values() if it <= 3]
        found = 0
        for combo in itertools.product(graphs, repeat=2):
            matches = intermolecular_matches(pattern, combo)[1]
            assert matches == intermolecular_matches(bare, combo)[1]
            found += len(matches)
        assert found > 0


FORMOSE_CLOSURE_DIGEST = "b30929be1ccbb0143d9163985c53359a1d05eb336af150efefaccd703b19a582"


class TestWorkPerMolecule:
    """How often ``expand`` matches a rule component and estimates an
    energy: each component once in each molecule found before the last
    iteration, and each stored molecule's energy once, under a model only.
    Cap 40 reaches its fixed point after iteration 10, so iterations 11-12
    match nothing."""

    @pytest.mark.parametrize("iterations, cap, with_model, matched, estimated, digest", [
        (5, None, True, 185, 302, FORMOSE_ENERGY_DIGEST),
        (8, 32, False, 695, 0, FORMOSE_CAP_DIGEST),
        (12, 40, False, 2945, 0, FORMOSE_CLOSURE_DIGEST)])
    def test_calls_and_exports(self, monkeypatch, formose_rules, formose_inputs, iterations,
                               cap, with_model, matched, estimated, digest):
        counts = Counter()

        def counted(name):
            inner = getattr(network, name)
            return lambda *args: counts.update([name]) or inner(*args)

        for name in ("find_monomorphisms", "estimate_energy"):
            monkeypatch.setattr(network, name, counted(name))
        model = load_energy_model(asset_text("energy_demo.tsv")) if with_model else None
        net = expand(formose_inputs, formose_rules,
                     ExpansionConfig(iterations=iterations, max_atoms=cap, energy_model=model))
        assert (counts["find_monomorphisms"], counts["estimate_energy"]) == (matched, estimated)
        assert hashlib.sha256((to_dot(net) + to_gml(net)).encode()).hexdigest() == digest


RING_CLOSURE = RuleGraph(
    "ring closure", [RuleNode(1, "C", "C"), RuleNode(2, "C", "C"), RuleNode(3, "C", "C")],
    [RuleEdge(1, 2, "-", "-"), RuleEdge(2, 3, "-", "-"), RuleEdge(1, 3, None, "-")])
# The same closure made sound: the two ends give up a hydrogen each, as H2.
H2_RING_CLOSURE = RuleGraph(
    "H2 ring closure",
    [RuleNode(1, "C", "C"), RuleNode(2, "C", "C"), RuleNode(3, "C", "C"),
     RuleNode(4, "H", "H"), RuleNode(5, "H", "H")],
    [RuleEdge(1, 2, "-", "-"), RuleEdge(2, 3, "-", "-"), RuleEdge(1, 4, "-", None),
     RuleEdge(3, 5, "-", None), RuleEdge(1, 3, None, "-"), RuleEdge(4, 5, None, "-")])


class TestFormedBondsAreGuarded:
    """A match where a bond the rule forms already exists is no match: the
    rule's own pattern forbids it, so no run aborts on it."""

    @pytest.mark.parametrize("rule", [RING_CLOSURE, H2_RING_CLOSURE], ids=lambda r: r.rule_id)
    @pytest.mark.parametrize("cap", [None, 8, 9])
    def test_ring_closure_agrees_with_naive_expander(self, rule, cap):
        # Every match of the closure in cyclopropane would form a bond that
        # exists; propane closes to cyclopropane.
        seeds = [prep("C1CC1"), prep("CCC")]
        net = expand(seeds, [rule], ExpansionConfig(iterations=2, max_atoms=cap))
        molecules, reactions = naive_expand(seeds, [rule], 2, cap)
        assert {c: it for c, (_, it) in net.molecules.items()} == molecules
        assert {(r.iteration, r.signature) for r in net.reactions} == reactions

    def test_h2_ring_closure_network(self):
        net = expand([prep("C1CC1"), prep("CCC")], [H2_RING_CLOSURE],
                     ExpansionConfig(iterations=2))
        assert sorted(net.molecules) == ["C1CC1", "CCC", "[H][H]"]
        assert [(r.reactants, r.products) for r in net.reactions] == \
            [(("CCC",), ("C1CC1", "[H][H]"))]


class TestProductTable:
    """``_compile_rule`` sizes the products of a rule from its graph alone."""

    def test_which_formose_rules_get_a_table(self, formose_rules):
        tables = {r.rule_id: _compile_rule(r).products for r in formose_rules}
        assert tables == {
            "Keto-Enol Isomerization": (((0,), 0),),
            "Keto-Enol Isomerization (reverse)": (((0,), 0),),
            "Aldol Condensation": (((0, 1), 0),),
            "Aldol Condensation (reverse)": None,  # splits a molecule
        }

    def test_undeclared_guard_keeps_the_table(self, formose_rules):
        # Keto-enol creates O-H (3-4) inside its one component.  Without a
        # declared NoEdge its pattern still forbids that bond, so apply
        # cannot collide and the rule keeps its table.
        bare = without_noedge(formose_rules[0])
        assert not any(isinstance(c, NoEdge) for c in bare.constraints)
        pattern, pid = bare.left_pattern()
        assert NoEdge(pid[3], pid[4]) in pattern.constraints
        assert _compile_rule(bare).products == (((0,), 0),)
        # Aldol creates its edges between components, which never collide.
        assert _compile_rule(without_noedge(formose_rules[2])).products is not None

    def test_deleted_node_gets_no_table(self):
        rule = RuleGraph("drop", [RuleNode(1, "C"), RuleNode(2, "H", None)],
                         [RuleEdge(1, 2, "-", None)])
        assert _compile_rule(rule).products is None

    def test_created_nodes_are_counted(self):
        rule = RuleGraph("grow", [RuleNode(1, "C", "C"), RuleNode(2, None, "O"),
                                  RuleNode(3, None, "N")],
                         [RuleEdge(1, 2, None, "-")])
        cr = _compile_rule(rule)
        assert sorted(cr.products) == [((), 1), ((0,), 1)]
        host = prep("C").graph
        (match, *_) = find_monomorphisms(cr.pattern, host)
        sizes = sorted(len(m) for _, m in connected_components(apply(rule, host, match).graph))
        assert sorted(cr.product_sizes([host.node_count])) == sizes == [1, 6]

    def test_predicted_sizes_equal_applied_sizes(self, formose_rules, formose_net5):
        graphs = [m.graph for m, it in formose_net5.molecules.values() if it <= 4]
        checked = 0
        for rule in formose_rules:
            cr = _compile_rule(rule)
            if cr.products is None:
                continue
            for combo in itertools.product(graphs, repeat=len(cr.components)):
                predicted = sorted(cr.product_sizes([g.node_count for g in combo]))
                union, matches = intermolecular_matches(cr.pattern, combo)
                for match in matches:
                    result = apply(rule, union, match)
                    assert sorted(len(m) for _, m in
                                  connected_components(result.graph)) == predicted
                    checked += 1
        assert checked > 300
