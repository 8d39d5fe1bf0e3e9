"""Chemistry layer: molecules as labeled graphs, SMILES I/O, perception,
rule validation, and energy/rate models."""

from .atoms import (AROMATIC_ELEMENTS, AtomLabel, BOND_ORDERS, BOND_SYMBOLS,
                    ELEMENTS, ORGANIC_SUBSET, allowed_valences,
                    implicit_hydrogens, parse_atom_label)
from .molecule import (ChemError, Molecule, Violation, fill_hydrogens,
                       molecular_formula, sanity_check)
from .smiles import (SmilesError, accept_product, canonical_smiles, parse_molecule,
                     parse_smiles)
from .rings import all_cycles, perceive_rings
from .aromatic import KekulizationError, kekulize, perceive_aromaticity
from .rulecheck import RuleViolation, check_chem_rule
from .energy import (EnergyModel, RateParams, estimate_energy,
                     load_energy_model, reaction_rate)
from .groups import Group, GroupRegistry, parse_gml_groups

__all__ = [
    "AROMATIC_ELEMENTS", "AtomLabel", "BOND_ORDERS", "BOND_SYMBOLS",
    "ELEMENTS", "ORGANIC_SUBSET", "allowed_valences", "implicit_hydrogens",
    "parse_atom_label",
    "ChemError", "Molecule", "Violation", "fill_hydrogens",
    "molecular_formula", "sanity_check",
    "SmilesError", "accept_product", "canonical_smiles", "parse_molecule", "parse_smiles",
    "all_cycles", "perceive_rings",
    "KekulizationError", "kekulize", "perceive_aromaticity",
    "RuleViolation", "check_chem_rule",
    "EnergyModel", "RateParams", "estimate_energy", "load_energy_model",
    "reaction_rate",
    "Group", "GroupRegistry", "parse_gml_groups",
]
