"""Aromaticity perception and kekulization.

Perception runs in two stages: first any aromatic (":") bonds are
kekulized into an explicit alternating single/double assignment, then
every ring of size ≤ 7 is scored with a π-electron table and rings
totalling 4n+2 electrons are flagged aromatic (lowercase atoms, ":"
bonds).  Rings that fail the count keep their kekulized labels, which is
exactly the "de-aromatize" behavior needed after a rewrite breaks a ring.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import replace

from ..core import _edited
from .atoms import AtomLabel, parse_atom_label
from .molecule import ChemError, Molecule, _tally
from .rings import all_cycles


class KekulizationError(ChemError):
    pass


def kekulize(m: Molecule) -> Molecule:
    """Rewrite aromatic bonds as alternating single/double bonds.

    Every atom with aromatic bonds is classified by how many additional
    bond orders it needs to reach its smallest feasible valence: one
    (participates in a double bond) or zero (contributes a lone pair);
    the atom's tally record holds that need, or why it cannot be met.
    A perfect matching of the one-needing atoms along aromatic bonds is
    then searched; failure raises :class:`KekulizationError`.
    """
    g = m.graph
    arom_edges = [(u, v) for u, v, lbl in g.edges() if lbl == ":"]
    if not arom_edges:
        return m

    arom_atoms = sorted({v for e in arom_edges for v in e})
    tallies = _tally(m)[0]
    for v in arom_atoms:
        if isinstance(tallies[v].need, tuple):
            raise KekulizationError(str(v).join(tallies[v].need))

    # Backtracking on an explicit stack: the first unmatched pending atom
    # takes its first free aromatic neighbour in ascending order; a dead
    # end undoes the latest choice and tries that atom's next neighbour.
    pending = [v for v in arom_atoms if tallies[v].need == 1]
    matched: dict[int, int] = {}
    stack: list[tuple[int, Iterator[int]]] = []
    i = 0
    while True:
        while i < len(pending) and pending[i] in matched:
            i += 1
        if i == len(pending):
            break
        # The generator tests "u not in matched" when it is advanced.
        stack.append((i, (u for u, lbl in g.neighbors(pending[i]).items()
                          if lbl == ":" and tallies[u].need == 1 and u not in matched)))
        while stack:
            i, partners = stack[-1]
            v = pending[i]
            if v in matched:  # back from a dead end
                del matched[matched.pop(v)]
            u = next(partners, None)
            if u is not None:
                break
            stack.pop()
        else:
            raise KekulizationError("no alternating single/double assignment exists")
        matched[v] = u
        matched[u] = v
        i += 1

    labels = [replace(rec.atom, aromatic=False).render() if rec.atom and rec.atom.aromatic
              else rec.label for rec in tallies]
    bonds = [(u, v, "=" if matched.get(u) == v else "-") for u, v in arom_edges]
    return Molecule(_edited(g, labels, g.nodes(), (), bonds), dict(m.explicit_h),
                    filled=m.filled)


def _pi_contribution(m: Molecule, v: int) -> int | None:
    """π electrons the atom donates to a candidate aromatic ring, or
    ``None`` if it cannot participate."""
    g = m.graph
    atom = parse_atom_label(g.label(v))
    if atom is None:
        return None
    doubles_to: list[AtomLabel | None] = []
    for u, lbl in g.neighbors(v).items():
        if lbl == "#":
            return None
        if lbl == "=":
            doubles_to.append(parse_atom_label(g.label(u)))
    has_double = bool(doubles_to)
    el, q = atom.element, atom.charge
    if el == "C" and q == 0:
        if not has_double:
            return None
        # A carbonyl carbon donates none; a C=[O+] bond lies in the ring,
        # where the O+ takes part itself (pyrylium).
        if any(a is not None and a.element == "O" and a.charge == 0 for a in doubles_to):
            return 0
        return 1
    if el in ("N", "P"):
        if q == 0:
            return 1 if has_double else 2
        if q == 1:
            return 1 if has_double else None
        return None
    if el in ("O", "S"):
        if q == 0:
            return None if has_double else 2
        if q == 1:
            return 1 if has_double else None
    return None


def perceive_aromaticity(m: Molecule) -> Molecule:
    """Flag aromatic rings (4n+2 π electrons, size ≤ 7) with lowercase
    atoms and ":" bonds; de-aromatize rings that no longer qualify."""
    kek = kekulize(m)
    rings = all_cycles(kek.graph, max_size=7)
    if not rings:
        return kek

    contrib: dict[int, int | None] = {}
    arom_atoms: set[int] = set()
    arom_bonds: set[tuple[int, int]] = set()
    for ring in rings:
        total = 0
        ok = True
        for v in ring:
            if v not in contrib:
                contrib[v] = _pi_contribution(kek, v)
            c = contrib[v]
            if c is None:
                ok = False
                break
            total += c
        if ok and total % 4 == 2:
            arom_atoms.update(ring)
            k = len(ring)
            for i in range(k):
                a, b = ring[i], ring[(i + 1) % k]
                arom_bonds.add((a, b) if a < b else (b, a))

    if not arom_atoms:
        return kek

    kg = kek.graph
    labels = list(kg.node_labels)
    for v in arom_atoms:
        atom = parse_atom_label(labels[v])
        if atom is not None:
            labels[v] = replace(atom, aromatic=True).render()
    bonds = [(u, v, ":") for u, v in arom_bonds]
    return Molecule(_edited(kg, labels, kg.nodes(), (), bonds), dict(kek.explicit_h),
                    filled=kek.filled)
