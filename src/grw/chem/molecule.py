"""Molecules: labeled graphs with explicit hydrogens and valence checks."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import LabeledGraph, _edited
from .atoms import BOND_ORDERS, BOND_SYMBOLS, _atom_record, parse_atom_label


class ChemError(ValueError):
    """Raised for chemically unusable input."""


@dataclass
class Molecule:
    """A connected molecular graph.

    Hydrogens are ordinary graph nodes.  Until :func:`fill_hydrogens` has
    run, ``explicit_h`` records the hydrogen counts requested by bracket
    atoms ("[CH2]" and friends) and ``filled`` is False.
    """
    graph: LabeledGraph
    explicit_h: dict[int, int] = field(default_factory=dict)
    filled: bool = False

    @property
    def atom_count(self) -> int:
        return self.graph.node_count


@dataclass(frozen=True)
class Violation:
    """One sanity finding: what is wrong, and on which node (if any)."""
    kind: str
    node: int | None
    message: str

    def __str__(self) -> str:
        return self.message


# Integer order of each non-aromatic bond symbol; other labels add 0.
_ORDER = {s: int(o) for s, o in BOND_ORDERS.items() if s != ":"}


# The record of a hydrogen whose one bond is "-" to a heavy atom.
_H = _atom_record("H", 0, 1, 0, 1, 0)


def _tally(m: Molecule):
    """Every atom's bonds, read from the heavy atoms: ``(atoms, heavy,
    heavy_adj, odd_edges, shared)``.

    ``atoms[v]`` is the record :func:`~grw.chem.atoms._atom_record` keeps
    for the atom's row: its label, the number of ``H`` neighbours, then
    the non-aromatic bond-order sum and the aromatic bond count over all
    neighbours and over heavy ones, with the valence model's verdicts on
    that row; atoms with equal rows share it.  ``shared`` counts the
    hydrogens whose one bond is ``-`` to a heavy atom: each gets the
    record ``_H`` in that atom's neighbour loop.  Other hydrogens, and
    heavy atoms next to them or to a label that is no bond symbol, are
    read one by one.  ``heavy_adj[i]`` maps the heavy neighbours of
    ``heavy[i]``, by index in ``heavy``, to bond labels; ``odd_edges``
    lists the ``(u, v, label)`` that are no bond, in ``edges()`` order.
    """
    g = m.graph
    labels = g.node_labels
    degree, neighbors, order = g.degree, g.neighbors, _ORDER.get
    heavy = [v for v, lbl in enumerate(labels) if lbl != "H"]
    index = {v: i for i, v in enumerate(heavy)}
    heavy_adj: list[dict[int, str]] = [{} for _ in heavy]
    atoms: list = [None] * len(labels)
    odd, shared = [], 0
    for i, v in enumerate(heavy):
        row = heavy_adj[i]
        h, single, aromatic, regular = 0, 0, 0, True
        for u, bond in neighbors(v).items():
            if labels[u] != "H":
                row[index[u]] = bond
                if (o := order(bond)) is not None:
                    single += o
                elif bond == ":":
                    aromatic += 1
                else:
                    regular = False
            elif bond == "-" and degree(u) == 1:
                atoms[u] = _H
                h += 1
            else:
                regular = False
        shared += h
        atoms[v] = (_atom_record(labels[v], h, single + h, aromatic, single, aromatic)
                    if regular else _read(g, v, odd))
    if shared < len(labels) - len(heavy):
        for v, rec in enumerate(atoms):
            if rec is None:
                atoms[v] = _read(g, v, odd)
        odd.sort()
    return atoms, heavy, heavy_adj, odd, shared


def _read(g: LabeledGraph, v: int, odd: list):
    """The record of one atom read on its own; appends to ``odd`` its
    edges to later nodes whose label is no bond symbol."""
    nbrs = g.neighbors(v).items()
    odd.extend((v, u, bond) for u, bond in nbrs if bond not in BOND_SYMBOLS and u > v)
    every = [bond for _, bond in nbrs]
    heavy = [bond for u, bond in nbrs if g.label(u) != "H"]
    return _atom_record(g.label(v), len(every) - len(heavy),
                        sum(_ORDER.get(b, 0) for b in every), every.count(":"),
                        sum(_ORDER.get(b, 0) for b in heavy), heavy.count(":"))


def _not_an_atom(g: LabeledGraph, v: int) -> ChemError:
    return ChemError(f"node {v} label {g.label(v)!r} is not an atom label")


def fill_hydrogens(m: Molecule) -> Molecule:
    """Add hydrogen nodes until every atom is saturated.

    Bracket atoms receive exactly their declared hydrogen count; other
    atoms are topped up to the smallest allowed valence not below their
    current bond-order sum (aromatic bonds count 1.5 with the standard
    round-down convention).  Hydrogen atoms themselves are never given
    implicit neighbors.  The operation is idempotent.
    """
    labels = list(m.graph.node_labels)
    added: list[tuple[int, int, str]] = []
    for v, rec in enumerate(_tally(m)[0]):
        if rec.atom is None:
            raise _not_an_atom(m.graph, v)
        missing = m.explicit_h[v] - rec.h if v in m.explicit_h else rec.fill
        for _ in range(max(0, missing)):
            labels.append("H")
            added.append((v, len(labels) - 1, "-"))
    graph = _edited(m.graph, labels, m.graph.nodes(), (), added) if added else m.graph
    return Molecule(graph, {}, filled=True)


def sanity_check(m: Molecule) -> list[Violation]:
    """Validate labels, connectivity and valence; returns found problems.

    Aromatic atoms are accepted with either of the two bond-order readings
    an alternating ring allows (with or without one ring double bond), so
    both pyrrole-type and pyridine-type centers pass.
    """
    return _sanity(m, _tally(m))


def _sanity(m: Molecule, tally) -> list[Violation]:
    """The body of :func:`sanity_check`, reading ``tally = _tally(m)``."""
    out: list[Violation] = []
    g = m.graph
    if g.node_count == 0:
        return [Violation("empty", None, "molecule has no atoms")]

    # Count the atoms reachable from atom 0.  A hydrogen hung on a heavy
    # atom is reached with it, so when every hydrogen is, the heavy atoms
    # are counted first, and all atoms only if the heavy ones fall apart.
    atoms, heavy, heavy_adj, odd_edges, shared = tally
    views = [(g.neighbors, g.node_count)]
    if shared == len(atoms) - len(heavy):
        views.insert(0, (heavy_adj.__getitem__, len(heavy)))
    for neighbors, n in views:
        seen = [False] * n
        seen[0] = True
        todo, reached = [0], 1
        while todo:
            for u in neighbors(todo.pop()):
                if not seen[u]:
                    seen[u] = True
                    reached += 1
                    todo.append(u)
        if reached == n:
            break
    else:
        out.append(Violation("disconnected", None,
                             f"molecule is not connected ({reached} of "
                             f"{g.node_count} atoms reachable from atom 0)"))

    for u, v, lbl in odd_edges:
        out.append(Violation("bond-label", u,
                             f"edge ({u}, {v}) label {lbl!r} is not a bond symbol"))

    out += [Violation(kind, v, str(v).join(parts))
            for v, rec in enumerate(atoms) for kind, parts in rec.violations]
    return out


def molecular_formula(m: Molecule) -> dict[str, int]:
    """Element -> count, for conservation checks."""
    counts: dict[str, int] = {}
    for v in m.graph.nodes():
        atom = parse_atom_label(m.graph.label(v))
        el = atom.element if atom is not None else m.graph.label(v)
        counts[el] = counts.get(el, 0) + 1
    return counts
