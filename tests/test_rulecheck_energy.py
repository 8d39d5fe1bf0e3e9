"""Chemical-rule validation, group-contribution energies, rates."""

from __future__ import annotations

import hashlib
import math

import pytest

from grw import NoEdge, RuleEdge, RuleGraph, RuleNode, parse_gml_rule
from grw.chem import (EnergyModel, RateParams, check_chem_rule,
                      estimate_energy, fill_hydrogens, load_energy_model,
                      parse_molecule, reaction_rate)

from conftest import asset_text, prep

# SHA-256 of the sorted (canonical SMILES, demo-model energy) lines of the
# 10 572 molecules of formose iteration 6.
ENERGIES_6 = "995eb20ed6cdfef594c8838665ba34494929e80b99871be55743de43d4f14959"


class TestCheckChemRule:
    def test_diels_alder_gains_auto_noedge(self):
        rule = parse_gml_rule(asset_text("diels_alder.gml"))
        violations, fixed = check_chem_rule(rule)
        assert violations == []
        # The guards live in the pattern, whether or not the rule was
        # checked; the checked rule declares what the file declares.
        assert fixed.constraints == rule.constraints
        pattern, _ = fixed.left_pattern()
        assert pattern.constraints == rule.left_pattern()[0].constraints
        ext = pattern.graph.ext_ids
        hand = {(c.source, c.target) for c in rule.constraints
                if isinstance(c, NoEdge)}
        auto = {(ext[c.source], ext[c.target]) for c in pattern.constraints
                if isinstance(c, NoEdge)} - hand
        assert hand == {(1, 5), (4, 6)}
        assert auto == {(4, 5), (1, 6)}  # one per newly created bond

    def test_atom_deletion_is_mass_violation(self):
        rule = RuleGraph("drop", [RuleNode(1, "O", None)], [])
        violations, _ = check_chem_rule(rule)
        assert any(v.kind == "mass" for v in violations)

    def test_atom_creation_is_mass_violation(self):
        rule = RuleGraph("spawn", [RuleNode(1, None, "C")], [])
        violations, _ = check_chem_rule(rule)
        assert any(v.kind == "mass" for v in violations)

    def test_element_change_is_mass_violation(self):
        rule = RuleGraph("transmute", [RuleNode(1, "C", "N")], [])
        violations, _ = check_chem_rule(rule)
        assert any(v.kind == "mass" for v in violations)

    def test_proton_transfer_with_charges_is_fine(self):
        # H migrates from O to N; both charge relabels match the valence
        # change their new bonding implies.
        rule = RuleGraph("protonate", [
            RuleNode(1, "N", "N+"), RuleNode(2, "H", "H"),
            RuleNode(3, "O", "O-"),
        ], [RuleEdge(2, 3, "-", None), RuleEdge(1, 2, None, "-")])
        violations, _ = check_chem_rule(rule)
        assert violations == []

    def test_overbonding_is_valence_violation(self):
        # A context carbon already carrying four bonds gains a fifth.
        rule = RuleGraph("overbond", [
            RuleNode(1, "C", "C"),
            RuleNode(2, "O", "O"),
        ], [RuleEdge(1, 2, "=", "#")])
        violations, _ = check_chem_rule(rule)
        assert any(v.kind == "valence" for v in violations)

    def test_nonchemical_label_flagged(self):
        rule = RuleGraph("weird", [RuleNode(1, "Zz", "Zz")], [])
        violations, _ = check_chem_rule(rule)
        assert any(v.kind == "label" for v in violations)

    def test_wildcard_material_is_exempt_from_valence_accounting(self):
        # Node 3 is a wildcard atom and the rule deletes the 1-2 bond of
        # unknown order, so none of these atoms can be budgeted; the
        # changing 1-3 bond must not be reported even though it would
        # over-bond a plain carbon.
        rule = RuleGraph("any", [
            RuleNode(1, "C", "C"), RuleNode(2, "C", "C"),
            RuleNode(3, "*", "*"),
        ], [RuleEdge(1, 2, "*", None), RuleEdge(1, 3, "-", "=")],
            wildcard="*")
        violations, fixed = check_chem_rule(rule)
        assert violations == []
        assert fixed.wildcard == "*"

    @pytest.mark.parametrize("left, right, exempt", [
        ("*", "*", False), ("*", None, True), (None, "*", True), ("*", ":", True),
        ("-", "*", True),
    ])
    def test_only_a_wildcard_bond_that_changes_exempts_its_ends(self, left, right, exempt):
        # A context wildcard bond keeps its order, so the new 1-3 bond must
        # still fit a valence transition on both carbons.
        rule = RuleGraph("unbalanced", [
            RuleNode(1, "C", "C"), RuleNode(2, "*", "*"),
            RuleNode(3, "C", "C"), RuleNode(4, "*", "*"),
        ], [RuleEdge(1, 2, left, right), RuleEdge(3, 4, left, right),
            RuleEdge(1, 3, None, "-")], wildcard="*")
        violations, _ = check_chem_rule(rule)
        assert [(v.kind, v.where) for v in violations] == \
            ([] if exempt else [("valence", 1), ("valence", 3)])

    def test_undeclared_star_becomes_wildcard(self):
        rule = RuleGraph("star", [RuleNode(1, "*", "*")], [])
        assert rule.wildcard is None
        _, fixed = check_chem_rule(rule)
        assert fixed.wildcard == "*"

    def test_formose_rules_pass(self):
        for name in ("keto_enol.gml", "keto_enol_reverse.gml",
                     "aldol.gml", "aldol_reverse.gml"):
            violations, _ = check_chem_rule(parse_gml_rule(asset_text(name)))
            assert violations == [], name

    def test_beta_lactamase_rule_passes(self):
        violations, _ = check_chem_rule(
            parse_gml_rule(asset_text("beta_lactamase.gml")))
        assert violations == []

    def test_violations_render_readably(self):
        rule = RuleGraph("drop", [RuleNode(1, "O", None)], [])
        violations, _ = check_chem_rule(rule)
        assert "mass" in str(violations[0])


class TestEnergy:
    def carbonyl_model(self) -> EnergyModel:
        model = EnergyModel()
        model.add(parse_molecule("C=O"), -5.0)
        return model

    def test_empty_model_gives_zero(self):
        assert estimate_energy(prep("OCC=O"), EnergyModel()) == 0.0

    def test_one_carbonyl(self):
        assert estimate_energy(prep("OCC=O"), self.carbonyl_model()) == -5.0

    def test_two_carbonyls(self):
        assert estimate_energy(prep("OC(=O)C=O"), self.carbonyl_model()) == -10.0

    def test_symmetry_reduced_counting(self):
        # An O=C=O fragment in CO2 embeds twice as a labeled map but is one
        # occurrence up to its own symmetry; a C=O probe still counts two.
        model = self.carbonyl_model()
        assert estimate_energy(prep("O=C=O"), model) == -10.0

    def test_load_model_file(self):
        model = load_energy_model(
            "# comment line\n"
            "C=O\t-5.0\n"
            "\n"
            "CO\t-1.5\n")
        gly = prep("OCC=O")
        # one carbonyl, two single C-O pairings (C-O of the alcohol, none
        # from the C=O which is a double bond)
        assert estimate_energy(gly, model) == -5.0 + -1.5

    def test_packaged_demo_model_loads(self):
        model = load_energy_model(asset_text("energy_demo.tsv"))
        val = estimate_energy(prep("OCC=O"), model)
        assert isinstance(val, float) and val != 0.0

    def test_fragments_are_compiled_once(self, monkeypatch):
        import grw.match
        compiled = []
        real = grw.match._compile
        monkeypatch.setattr(grw.match, "_compile",
                            lambda pattern: compiled.append(pattern) or real(pattern))
        molecules = [prep(s) for s in ("OCC=O", "C=O", "OC(=O)C=O", "C=CO")]
        model = load_energy_model(asset_text("energy_demo.tsv"))
        assert len(compiled) == len(model) == 3
        compiled.clear()
        for m in molecules:
            estimate_energy(m, model)
        assert compiled == []

    @pytest.mark.slow
    def test_sixth_iteration_energies_are_pinned(self, formose_net6):
        """The demo-model energy of every iteration-6 molecule, keyed by its
        canonical SMILES.  Rates and ΔE follow from these energies."""
        model = load_energy_model(asset_text("energy_demo.tsv"))
        pairs = sorted((smiles, estimate_energy(m, model))
                       for smiles, (m, _) in formose_net6.molecules.items())
        assert len(pairs) == 10572
        text = "".join(f"{smiles}\t{energy!r}\n" for smiles, energy in pairs)
        assert hashlib.sha256(text.encode()).hexdigest() == ENERGIES_6

    def test_bad_model_line_rejected(self):
        from grw.chem import ChemError
        with pytest.raises(ChemError):
            load_energy_model("C=O\tnot-a-number\n")


class TestRates:
    def test_zero_delta_is_exactly_one(self):
        assert reaction_rate(0.0) == 1.0

    def test_rt_gives_e_inverse(self):
        p = RateParams()
        rate = reaction_rate(p.R * p.T, p)
        assert math.isclose(rate, math.exp(-1.0), rel_tol=1e-12)

    def test_forward_reverse_product_is_one(self):
        p = RateParams()
        for delta in (0.7, 3.2, -12.5, 40.0):
            prod = reaction_rate(delta, p) * reaction_rate(-delta, p)
            assert math.isclose(prod, 1.0, rel_tol=1e-12)

    def test_monotone_in_delta(self):
        assert reaction_rate(1.0) > reaction_rate(2.0)

    def test_custom_temperature(self):
        hot = RateParams(T=1000.0)
        assert reaction_rate(5.0, hot) > reaction_rate(5.0, RateParams())

    def test_params_validated(self):
        with pytest.raises(ValueError):
            RateParams(T=0.0)
        with pytest.raises(ValueError):
            RateParams(R=-1.0)

    def test_reverse_reaction_delta_is_antisymmetric(self, formose_rules):
        """Forward and side-swapped reactions have opposite energy changes."""
        from grw import apply_all, connected_components
        from grw.chem import Molecule, perceive_aromaticity, sanity_check

        model = load_energy_model(asset_text("energy_demo.tsv"))
        keto, keto_rev = formose_rules[0], formose_rules[1]
        host = prep("OCC=O")

        def product_energy(rule, mol):
            results = apply_all(rule, mol.graph)
            assert results
            pieces = connected_components(results[0].graph)
            total = 0.0
            mols = []
            for sub, _ in pieces:
                pm = perceive_aromaticity(Molecule(sub, {}, filled=True))
                assert sanity_check(pm) == []
                total += estimate_energy(pm, model)
                mols.append(pm)
            return total, results[0]

        e_host = estimate_energy(host, model)
        e_prod, fwd = product_energy(keto, host)
        delta_fwd = e_prod - e_host

        # Walk back from the product with the reverse rule.
        from grw.chem import canonical_smiles
        enol = Molecule(fwd.graph, {}, filled=True)
        enol = perceive_aromaticity(enol)
        e_enol = estimate_energy(enol, model)
        back = apply_all(keto_rev, enol.graph)
        assert back
        back_mol = perceive_aromaticity(Molecule(back[0].graph, {}, filled=True))
        delta_rev = estimate_energy(back_mol, model) - e_enol
        assert math.isclose(delta_fwd, -delta_rev, rel_tol=1e-12)
        assert canonical_smiles(back_mol) == canonical_smiles(host)
