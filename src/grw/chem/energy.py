"""Group-contribution energies and Arrhenius-style rates.

An :class:`EnergyModel` is a list of (fragment pattern, contribution)
pairs.  A molecule's energy is the sum over entries of the contribution
times the number of embeddings of the fragment, counted up to fragment
automorphism so a symmetric fragment is not double-counted per site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..match import Pattern, _count_monomorphisms
from .molecule import ChemError, Molecule
from .smiles import parse_molecule


@dataclass(frozen=True)
class RateParams:
    """Temperature and gas constant for rate evaluation.

    Units: kelvin and kcal/(mol·K); the default R matches energies given
    in kcal/mol.
    """
    T: float = 298.15
    R: float = 1.987e-3

    def __post_init__(self):
        if not self.T > 0:  # NaN too: every rate would read nan
            raise ValueError("temperature must be positive")
        if not self.R > 0:
            raise ValueError("gas constant must be positive")
        if not self.R * self.T > 0:  # every rate divides by it
            raise ValueError("R·T must be positive, not rounded to zero")


@dataclass(frozen=True)
class EnergyEntry:
    """One fragment, its contribution, and its pattern, compiled once."""
    fragment: Molecule
    contribution: float
    automorphisms: int
    pattern: Pattern


class EnergyModel:
    """Fragment-based molecular energy estimator."""

    def __init__(self, entries=()):
        self._entries: list[EnergyEntry] = []
        for fragment, contribution in entries:
            self.add(fragment, contribution)

    def add(self, fragment: Molecule, contribution: float) -> None:
        pattern = Pattern(fragment.graph)
        auto = _count_monomorphisms(pattern, fragment.graph)
        self._entries.append(EnergyEntry(fragment, float(contribution), auto, pattern))

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)


def load_energy_model(text: str) -> EnergyModel:
    """Parse a model file: one ``SMILES-fragment<TAB>contribution`` per
    line; blank lines and ``#`` comments are skipped.

    Fragments are matched as drawn — hydrogens are not filled in, so a
    pattern like ``C=O`` matches any carbonyl regardless of substitution.
    """
    model = EnergyModel()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "\t" not in line:
            raise ChemError(
                f"energy model line {lineno}: expected 'fragment<TAB>value'")
        frag_text, value_text = line.split("\t", 1)
        frag_text = frag_text.strip()
        try:
            value = float(value_text.strip())
        except ValueError as exc:
            raise ChemError(
                f"energy model line {lineno}: bad contribution {value_text.strip()!r}"
            ) from exc
        try:
            fragment = parse_molecule(frag_text)
        except ChemError as exc:
            raise ChemError(f"energy model line {lineno}: {exc}") from exc
        model.add(fragment, value)
    return model


def estimate_energy(m: Molecule, model: EnergyModel) -> float:
    """Sum of contributions over symmetry-reduced fragment embeddings."""
    total = 0.0
    for entry in model:
        n = _count_monomorphisms(entry.pattern, m.graph)
        if n:
            total += entry.contribution * (n // entry.automorphisms)
    return total


def reaction_rate(delta_e: float, params: RateParams = RateParams()) -> float:
    """Dimensionless rate ``exp(−ΔE / (R·T))`` for an energy difference in
    kcal/mol."""
    return math.exp(-delta_e / (params.R * params.T))
