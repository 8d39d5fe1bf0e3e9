"""Atom labels and the valence model.

A molecule node label packs element, charge, aromaticity and an optional
SMILES class number into one string: ``C``, ``Br``, ``c``, ``n``, ``O-``,
``N+``, ``C:1``.  The charge renders as a bare sign for magnitude one and
as sign-plus-digits otherwise; the class joins with a colon.  Aromatic
atoms use the lowercase element symbol.

What the model decides about one atom environment (its sanity, the
hydrogens a fill adds, its Kekulé need and its SMILES token) is decided
once per distinct environment, in :func:`_atom_record`.
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


@dataclass(frozen=True, slots=True)
class _AtomRecord:
    """A tally row and the valence model's verdicts on it.

    The row is the node label, its number of ``H`` neighbours, then the
    non-aromatic bond-order sum and the aromatic bond count over all
    neighbours and over heavy ones.  Atoms with equal rows share one
    record, so a message that names the atom is kept as the ``parts``
    around its number: ``str(v).join(parts)``.
    """
    label: str
    h: int
    single: int
    aromatic: int
    heavy_single: int
    heavy_aromatic: int
    atom: AtomLabel | None  # the parsed label
    violations: tuple  # (kind, parts) of each sanity violation, in check order
    fill: int | None  # hydrogens fill_hydrogens adds where none are declared
    need: int | tuple[str, ...]  # Kekulé need, 0 or 1, or the refusal's parts
    token: str | None  # SMILES token as a heavy atom
    ready: bool  # an atom whose hydrogen bonds are all "-" (given no odd labels)
    prefix: tuple | None  # (element, charge, class or -1, aromatic): initial colour


@lru_cache(maxsize=4096)
def _atom_record(label: str, h: int, single: int, aromatic: int,
                 heavy_single: int, heavy_aromatic: int) -> _AtomRecord:
    """The record of one tally row.  Aromatic atoms pass the valence
    check with either bond-order reading an alternating ring allows; the
    Kekulé need counts aromatic bonds as single; the token is a bare
    symbol when the implicit-hydrogen rule reproduces ``h``."""
    row = (label, h, single, aromatic, heavy_single, heavy_aromatic)
    atom = parse_atom_label(label)
    if atom is None:
        return _AtomRecord(*row, None,
                           (("atom-label", (f"label {label!r} is not an atom label",)),),
                           None, ("node ", f" label {label!r} is not an atom"), None, False, None)
    valences = allowed_valences(atom.element, atom.charge)
    found = []
    if atom.aromatic and aromatic < 2:
        found.append(("aromatic", ("aromatic atom ", f" has {aromatic} aromatic bonds")))
    if not atom.aromatic and aromatic > 0:
        found.append(("aromatic", ("non-aromatic atom ", " has an aromatic bond")))
    if aromatic == 1:
        found.append(("aromatic", ("atom ", " has a dangling aromatic bond")))
    elif not valences:
        found.append(("valence", (f"no valence rule for {label!r}",)))
    elif not (single + aromatic in valences or aromatic and single + aromatic + 1 in valences):
        found.append(("valence", ("atom ", f" ({label}) has bond-order sum "
                                  f"{single + 1.5 * aromatic:g}, allowed valences {valences}")))
    fill = 0 if atom.element == "H" else \
        implicit_hydrogens(atom.element, atom.charge, single, aromatic) or 0
    need = min((v - single - aromatic for v in valences if v >= single + aromatic), default=None)
    if need is None:
        need = ("node ", f" ({label}) exceeds its valence before kekulization")
    elif need > 1:
        need = ("node ", f" ({label}) needs {need} extra bonds; cannot kekulize")
    text, k = atom.render(), len(atom.element)
    hs = "" if h == 0 else "H" if h == 1 else f"H{h}"
    bare = not atom.charge and atom.cls is None and atom.element in ORGANIC_SUBSET \
        and implicit_hydrogens(atom.element, 0, heavy_single, heavy_aromatic) == h
    return _AtomRecord(*row, atom, tuple(found), fill, need,
                       text if bare else f"[{text[:k]}{hs}{text[k:]}]",
                       single - heavy_single == h and aromatic == heavy_aromatic,
                       (atom.element, atom.charge, -1 if atom.cls is None else atom.cls,
                        atom.aromatic))
