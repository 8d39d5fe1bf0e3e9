"""Atom labels and the valence model.

A molecule node label packs element, charge, aromaticity and an optional
SMILES class number into one string: ``C``, ``Br``, ``c``, ``n``, ``O-``,
``N+``, ``C:1``.  The charge renders as a bare sign for magnitude one and
as sign-plus-digits otherwise; the class joins with a colon.  Aromatic
atoms use the lowercase element symbol.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

# All IUPAC element symbols, for parsing arbitrary bracket atoms.
ELEMENTS = frozenset("""
H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni
Cu Zn Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I
Xe Cs Ba La Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt
Au Hg Tl Pb Bi Po At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr
Rf Db Sg Bh Hs Mt Ds Rg Cn Nh Fl Mc Lv Ts Og
""".split())

# Elements that may carry the aromatic (lowercase) flag.
AROMATIC_ELEMENTS = frozenset({"B", "C", "N", "O", "P", "S"})

# Bare (bracket-free) atoms allowed in SMILES.
ORGANIC_SUBSET = frozenset({"B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I"})

# Bond symbol -> order; aromatic bonds sit between single and double.
BOND_ORDERS = {"-": 1.0, "=": 2.0, "#": 3.0, ":": 1.5}
BOND_SYMBOLS = frozenset(BOND_ORDERS)

# Allowed valences for the neutral organic subset.  Charge shifts the
# allowed values of the nitrogen and oxygen groups by +charge: N+ is
# tetravalent, O- monovalent and O+ trivalent (hydronium, oxonium,
# pyrylium).
_BASE_VALENCES: dict[str, tuple[int, ...]] = {
    "H": (1,),
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "P": (3, 5),
    "O": (2,),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}
_CHARGE_SHIFTED = frozenset({"N", "P", "O", "S"})


@dataclass(frozen=True)
class AtomLabel:
    """Decoded form of a molecule node label."""
    element: str
    charge: int = 0
    cls: int | None = None
    aromatic: bool = False

    def render(self) -> str:
        text = self.element.lower() if self.aromatic else self.element
        if self.charge:
            sign = "+" if self.charge > 0 else "-"
            text += sign if abs(self.charge) == 1 else f"{sign}{abs(self.charge)}"
        if self.cls is not None:
            text += f":{self.cls}"
        return text


_LABEL_RE = re.compile(r"([A-Z][a-z]?|[bcnops])([+-][0-9]*)?(?::([0-9]+))?")


@lru_cache(maxsize=4096)
def parse_atom_label(label: str) -> AtomLabel | None:
    """Decode a node label; ``None`` when it is not a chemical atom label.

    Results are cached: ``AtomLabel`` is frozen, so callers may share them.
    """
    m = _LABEL_RE.fullmatch(label)
    if not m:
        return None
    sym, q, cls = m.groups()
    aromatic = sym[0].islower()
    element = sym.capitalize() if aromatic else sym
    if element not in ELEMENTS:
        return None
    if aromatic and element not in AROMATIC_ELEMENTS:
        return None
    if q is None:
        charge = 0
    elif q in ("+", "-"):
        charge = 1 if q == "+" else -1
    else:
        charge = int(q[1:]) * (1 if q[0] == "+" else -1)
    return AtomLabel(element, charge, int(cls) if cls is not None else None, aromatic)


def allowed_valences(element: str, charge: int = 0) -> tuple[int, ...]:
    """Valences an atom may use; empty when the model has no rule for it."""
    base = _BASE_VALENCES.get(element)
    if base is None:
        return ()
    if charge == 0:
        return base
    if element not in _CHARGE_SHIFTED:
        return ()  # no charge rule outside the N/O groups
    return tuple(v + charge for v in base if v + charge >= 0)


def implicit_hydrogens(element: str, charge: int, single_sum: int,
                       aromatic_count: int) -> int | None:
    """Hydrogens needed to saturate an atom, or ``None`` without a rule.

    ``single_sum`` is the integer bond-order sum of the non-aromatic bonds;
    aromatic bonds count 1.5 each with an odd total rounded up, which gives
    benzene carbons one hydrogen and fused-ring junctions zero.  Atoms
    carrying aromatic bonds saturate only to their smallest valence — a
    thiophene sulfur keeps its lone pair instead of stretching to four.
    """
    valences = allowed_valences(element, charge)
    if not valences:
        return None
    occupied = single_sum + aromatic_count + (aromatic_count + 1) // 2
    for v in sorted(valences):
        if v >= occupied:
            return v - occupied
        if aromatic_count:
            break
    return 0
