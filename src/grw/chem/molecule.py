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


def _tally(m: Molecule):
    """Every atom's bonds in one pass: ``(atoms, heavy, heavy_adj, odd_edges)``.

    ``atoms[v]`` is the record :func:`~grw.chem.atoms._atom_record` keeps
    for the atom's row: its label, the number of ``H`` neighbours, then
    the non-aromatic bond-order sum and the aromatic bond count over all
    neighbours and over heavy ones, with the valence model's verdicts on
    that row; atoms with equal rows share it.  ``heavy_adj[i]`` maps the
    heavy neighbours of ``heavy[i]``, by index in ``heavy``, to bond
    labels; ``odd_edges`` lists the ``(u, v, label)`` that are no bond, in
    :meth:`~grw.core.LabeledGraph.edges` order.
    """
    g = m.graph
    labels = g.node_labels
    heavy = [v for v, lbl in enumerate(labels) if lbl != "H"]
    index = [0] * len(labels)
    for i, v in enumerate(heavy):
        index[v] = i
    heavy_adj: list[dict[int, str]] = [{} for _ in heavy]
    atoms, odd, unused = [], [], {}  # unused: the heavy rows of H atoms, never read
    for v, lbl in enumerate(labels):
        row = heavy_adj[index[v]] if lbl != "H" else unused
        h = h_single = h_aromatic = single = aromatic = 0
        for u, bond in g.neighbors(v).items():
            if bond not in BOND_SYMBOLS and u > v:
                odd.append((v, u, bond))
            if labels[u] == "H":
                h += 1
                h_single += _ORDER.get(bond, 0)
                h_aromatic += bond == ":"
            else:
                row[index[u]] = bond
                single += _ORDER.get(bond, 0)
                aromatic += bond == ":"
        atoms.append(_atom_record(lbl, h, single + h_single, aromatic + h_aromatic,
                                  single, aromatic))
    return atoms, heavy, heavy_adj, odd


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

    # Count the atoms reachable from atom 0.
    seen = [False] * g.node_count
    seen[0] = True
    todo, reached = [0], 1
    while todo:
        for u in g.neighbors(todo.pop()):
            if not seen[u]:
                seen[u] = True
                reached += 1
                todo.append(u)
    if reached != g.node_count:
        out.append(Violation("disconnected", None,
                             f"molecule is not connected ({reached} of "
                             f"{g.node_count} atoms reachable from atom 0)"))

    atoms, _, _, odd_edges = tally
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
