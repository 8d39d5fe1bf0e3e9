"""SMILES reading and canonical writing.

The dialect covers the needs of rule-based chemistry here: organic-subset
atoms, aromatic lowercase atoms, bracket atoms with hydrogen count, charge
and class, branches, ring-closure digits (including ``%NN``), explicit
bond symbols ``- = # :``, dot-separated components, and molecular-group
placeholders ``[{NAME}]`` expanded through a registry.  Stereochemistry
and isotopes are out of scope.

Reading is one regular-expression scan: each match is a bond symbol, a
branch, a dot, a ring-closure number, a bracket atom or a bare atom, and
any other character is an error at its own position.  Group names are
looked up once the whole text is read; an unknown one is a
:class:`SmilesError` at its placeholder.

Bracket atoms carry a node label's text (:mod:`grw.chem.atoms`) with the
hydrogen count after the element symbol: reading decodes the charge and
class with :func:`parse_atom_label`, writing renders them with
:meth:`AtomLabel.render`.

Canonical output ranks the hydrogen-suppressed molecule with the search
of :func:`grw.match.canonical_form` (neighborhood refinement, then
individualization of tied atoms, pruned by twins such as the methyls of
a tert-butyl group and by the automorphisms found) and writes the
smallest SMILES over its leaves, so any node ordering of the same
molecule yields byte-identical SMILES.  The search reads the tally's
heavy-atom bond rows, ordered by ``_BOND_RANK``, and colours each atom by
a tuple of its label, heavy degree, hydrogen count and bonds, so the
written SMILES depends only on the ranked heavy-atom graph, as required.
A molecule must be connected, with each hydrogen bonded to one heavy
atom.  Writing uses explicit stacks and touches no interpreter setting.
"""

from __future__ import annotations

import re
from heapq import heappop, heappush

from ..core import LabeledGraph, connected_components
from ..match import canonical_form
from .atoms import (AROMATIC_ELEMENTS, AtomLabel, ORGANIC_SUBSET, parse_atom_label,
                    ELEMENTS)
from .aromatic import perceive_aromaticity
from .groups import _placeholder_name
from .molecule import ChemError, Molecule, _not_an_atom, _sanity, _tally


class SmilesError(ChemError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


# One match per token: a bond symbol, a branch, a dot, a ring-closure
# number, a bracket atom or a bare atom; any other character is ``bad``.
_TOKEN_RE = re.compile(r"""
    (?P<bond>[-=\#:]) | (?P<open>\() | (?P<close>\)) | (?P<dot>\.)
  | (?P<ring>[0-9]|%[0-9]{2}) | (?P<bracket>\[[^]]*\])
  | (?P<atom>Cl|Br|[BCNOPSFIbcnops]) | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# Control characters as their Python escapes (``\n`` as ``\\n``), so that
# an error quoting a bracket atom stays on one line.
_CONTROL_ESCAPES = {c: repr(chr(c))[1:-1] for c in (*range(0x20), *range(0x7f, 0xa0))}
# Symbol, hydrogen count, then charge and class text for parse_atom_label.
_BRACKET_RE = re.compile(r"([A-Z][a-z]?|[bcnops])(?:H([0-9]*))?([-+:].*)?")
# The bare atoms: the organic subset, and the aromatic elements in lowercase.
_BARE_ATOMS = {**{sym: AtomLabel(sym) for sym in ORGANIC_SUBSET},
               **{sym.lower(): AtomLabel(sym, aromatic=True) for sym in AROMATIC_ELEMENTS}}


def parse_smiles(text: str, groups=None) -> list[Molecule]:
    """Parse a SMILES string into molecules, one per dot component.

    Hydrogens are *not* filled here; bracket hydrogen counts are recorded
    on the returned molecules for :func:`fill_hydrogens` to honor.  Group
    placeholders are looked up in ``groups`` once the whole text is read.
    """
    labels: list[str] = []
    aromatic: list[bool] = []
    explicit: dict[int, int] = {}
    placeholders: dict[int, str] = {}  # atom -> group name
    opened: dict[int, int] = {}  # placeholder atom -> position of its '['
    bonds: dict[tuple[int, int], str] = {}
    stack: list[int] = []
    prev: int | None = None
    pending: str | None = None
    ring: dict[int, tuple[int, str | None, int]] = {}

    def add_bond(a: int, b: int, sym: str | None, pos: int) -> None:
        if a == b:
            raise SmilesError("ring bond closes on its own atom", pos)
        key = (a, b) if a < b else (b, a)
        if key in bonds:
            raise SmilesError("duplicate bond between two atoms", pos)
        bonds[key] = sym or (":" if aromatic[a] and aromatic[b] else "-")

    for m in _TOKEN_RE.finditer(text):
        kind, value, pos = m.lastgroup, m.group(), m.start()
        if kind == "bond":
            if pending is not None:
                raise SmilesError("two bond symbols in a row", pos)
            pending = value
        elif kind == "open":
            if prev is None:
                raise SmilesError("branch opens with no preceding atom", pos)
            stack.append(prev)
        elif kind == "close":
            if not stack:
                raise SmilesError("unbalanced ')'", pos)
            if pending is not None:
                raise SmilesError("dangling bond symbol before ')'", pos)
            prev = stack.pop()
        elif kind == "dot":
            if stack:
                raise SmilesError("'.' inside a branch", pos)
            if pending is not None:
                raise SmilesError("dangling bond symbol before '.'", pos)
            prev = None
        elif kind == "ring":
            num = int(value.lstrip("%"))
            if prev is None:
                raise SmilesError("ring-closure digit with no preceding atom", pos)
            if num in ring:
                a, sym_open, _ = ring.pop(num)
                if sym_open is not None and pending is not None and sym_open != pending:
                    raise SmilesError(f"ring bond {num} has conflicting bond symbols", pos)
                add_bond(a, prev, sym_open or pending, pos)
            else:
                ring[num] = (prev, pending, pos)
            pending = None
        elif kind == "bad":
            if value == "%":
                raise SmilesError("'%' must be followed by two digits", pos)
            if value == "[":
                raise SmilesError("unterminated bracket atom", pos)
            if value.isalpha() or value == "*":
                raise SmilesError(f"unexpected atom symbol {value!r}", pos)
            raise SmilesError(f"unexpected character {value!r}", pos)
        else:  # an atom: bare, in brackets, or a group placeholder
            v = len(labels)
            if kind == "atom":
                atom = _BARE_ATOMS[value]
            elif (name := _placeholder_name(value)) is not None:
                if not re.fullmatch(r"[A-Za-z0-9_-]+", name):
                    raise SmilesError(f"invalid group name {name!r}", pos)
                placeholders[v], opened[v] = name, pos
                atom = None
            else:
                bm = _BRACKET_RE.fullmatch(value[1:-1])
                if not bm:
                    raise SmilesError(f"malformed bracket atom {value.translate(_CONTROL_ESCAPES)}", pos)
                sym, hcount, rest = bm.groups()
                if sym.capitalize() not in ELEMENTS:
                    raise SmilesError(f"unknown element {sym!r}", pos)
                atom = parse_atom_label(sym + (rest or ""))
                if atom is None:
                    raise SmilesError(f"malformed bracket atom {value.translate(_CONTROL_ESCAPES)}", pos)
                explicit[v] = 0 if hcount is None else int(hcount or 1)
            labels.append(value if atom is None else atom.render())
            aromatic.append(atom is not None and atom.aromatic)
            if prev is not None:
                add_bond(prev, v, pending, pos)
            elif pending is not None:
                raise SmilesError("bond symbol with no preceding atom", pos)
            prev, pending = v, None

    if stack:
        raise SmilesError("unbalanced '('", len(text))
    if pending is not None:
        raise SmilesError("dangling bond symbol at end of input", len(text))
    if ring:
        num, (_, _, pos) = sorted(ring.items())[0]
        raise SmilesError(f"unclosed ring bond {num}", pos)
    if not labels:
        raise SmilesError("empty SMILES", 0)

    edge_list = [(u, v, lbl) for (u, v), lbl in bonds.items()]
    for v, name in placeholders.items():
        if groups is None:
            raise SmilesError(f"group placeholder [{{{name}}}] without a registry", opened[v])
        if name not in groups:
            raise SmilesError(f"unknown group {name!r}", opened[v])
    if placeholders:
        n = len(labels)
        atoms, fragment_bonds = groups.splice(placeholders, n)
        for v, label in atoms:
            if v < n:
                labels[v] = label
            else:
                labels.append(label)
        edge_list += fragment_bonds

    out = []
    for comp, members in connected_components(LabeledGraph.from_parts(labels, edge_list)):
        eh = {new: explicit[old] for new, old in enumerate(members) if old in explicit}
        out.append(Molecule(comp, eh, filled=False))
    return out


def parse_molecule(text: str, groups=None) -> Molecule:
    """Parse a SMILES expected to hold exactly one component."""
    mols = parse_smiles(text, groups)
    if len(mols) != 1:
        raise SmilesError(f"expected one molecule, found {len(mols)}", 0)
    return mols[0]


# -- canonical form ----------------------------------------------------------

_BOND_RANK = {"-": 0, "=": 1, "#": 2, ":": 3}
# Ring-closure token of each digit 1-99.
_RING_DIGITS = [""] + [str(d) if d < 10 else f"%{d}" for d in range(1, 100)]


def _initial_colors(heavy: list, adj: list[dict[int, str]]) -> list[tuple]:
    """Colour of each heavy atom from its tally record and its heavy-atom bonds."""
    return [(rec.prefix, len(row), rec.h, tuple(sorted(row.values())))
            for rec, row in zip(heavy, adj)]


def _emit(tokens: list[str], aromatic: list[bool], adj: list[dict[int, str]],
          rank: list[int]) -> str:
    """Write SMILES following ranks: lowest-rank root, neighbors by rank."""
    n = len(tokens)
    by_rank = sorted(range(n), key=rank.__getitem__)
    ordered: list[list[int]] = [[] for _ in range(n)]  # neighbours in rank order
    for v in by_rank:
        for u in adj[v]:
            ordered[u].append(v)
    root = by_rank[0]

    def bond_str(a: int, b: int) -> str:
        lbl = adj[a][b]
        if lbl == "-":
            return "" if not (aromatic[a] and aromatic[b]) else "-"
        if lbl == ":":
            return "" if (aromatic[a] and aromatic[b]) else ":"
        return lbl

    # Depth-first spanning tree, children in rank order; atoms are written
    # in the order it visits them.  A bond to an atom visited earlier that
    # is not the parent closes a ring, opened at that earlier atom.  Each
    # atom is preceded by its bond from its parent, and a child that has a
    # later sibling opens a branch, closed after the last atom under it.
    parent = [-1] * n
    preindex = [-1] * n  # -1 until visited
    preindex[root] = 0
    order = [root]
    lead = [""] * n
    closes = [0] * n  # the branches closed after each atom
    last_child = [-1] * n
    subtree_end = [0] * n  # the last atom visited under each atom
    back_open, back_close = {}, {}  # ring bonds, by the atom opening and by the one closing
    walk = [(root, iter(ordered[root]))]
    while walk:
        v, pending = walk[-1]
        for u in pending:
            if preindex[u] < 0:
                preindex[u] = len(order)
                order.append(u)
                parent[u] = v
                lead[u] = bond_str(v, u)
                if (w := last_child[v]) >= 0:
                    lead[w] = "(" + lead[w]
                    closes[subtree_end[w]] += 1
                last_child[v] = u
                walk.append((u, iter(ordered[u])))
                break
            if preindex[u] < preindex[v] and u != parent[v]:
                back_open.setdefault(u, []).append(v)
                back_close.setdefault(v, []).append(u)
        else:
            walk.pop()
            subtree_end[v] = order[-1]
    if len(order) < n:
        raise ChemError("canonical_smiles requires a connected molecule")

    digit_of: dict[tuple[int, int], int] = {}
    free = list(range(1, 100))  # a heap of the free ring digits
    out: list[str] = []
    for v in order:
        out.append(lead[v])
        out.append(tokens[v])
        if v in back_close:
            for u in sorted(back_close[v], key=preindex.__getitem__):
                d = digit_of.pop((u, v))
                heappush(free, d)
                out.append(_RING_DIGITS[d])
        if v in back_open:
            for u in sorted(back_open[v], key=preindex.__getitem__):
                d = heappop(free)
                digit_of[(v, u)] = d
                out.append(bond_str(v, u) + _RING_DIGITS[d])
        if closes[v]:
            out.append(")" * closes[v])
    return "".join(out)


def _bad_bond(u: int, v: int, lbl: str, labels: tuple[str, ...]) -> ChemError:
    what = ("single bonds to hydrogens" if "H" in (labels[u], labels[v])
            else "bond symbols between heavy atoms")
    return ChemError(f"canonical_smiles requires {what}; edge ({u}, {v}) label {lbl!r} "
                     f"is not one")


def canonical_smiles(m: Molecule) -> str:
    """Canonical SMILES of a filled molecule.

    The same string is produced for every node ordering of isomorphic
    molecules, and re-parsing it (plus hydrogen fill) reproduces the
    molecule up to isomorphism.  Raises :class:`ChemError` for a molecule
    that is not filled, holds a label that is no atom, has a hydrogen
    not bonded to exactly one heavy atom, joins two heavy atoms by a
    label that is no bond symbol, bonds a hydrogen by anything but ``-``,
    or is not connected.
    """
    _require_filled(m)
    return _canonical(m, _tally(m))


def _require_filled(m: Molecule) -> None:
    if not m.filled:
        raise ChemError("canonical_smiles requires a hydrogen-filled molecule")


def _canonical(m: Molecule, tally) -> str:
    """The body of :func:`canonical_smiles` past its fill check, reading
    ``tally = _tally(m)``."""
    atoms, heavy_nodes, adj, odd_edges, shared = tally
    if not heavy_nodes:
        if m.graph.node_count == 1:
            return "[H]"
        if m.graph.node_count == 2 and m.graph.edge_count == 1:
            return "[H][H]"
        raise ChemError("cannot canonicalize an all-hydrogen fragment this large")
    heavy = [atoms[v] for v in heavy_nodes]
    # The checks below all pass with no odd label, every H shared and every heavy atom ready.
    if odd_edges or shared < len(atoms) - len(heavy) or not all(rec.ready for rec in heavy):
        for v, rec in zip(heavy_nodes, heavy):
            if rec.atom is None:
                raise _not_an_atom(m.graph, v)
        labels = m.graph.node_labels
        if any(lbl == "H" and (atoms[v].h or m.graph.degree(v) != 1)
               for v, lbl in enumerate(labels)):
            raise ChemError("canonical_smiles requires every hydrogen bonded to one heavy atom")
        if odd_edges:
            raise _bad_bond(*odd_edges[0], labels)
        # With no odd label, every bond to a hydrogen orders at least 1, so
        # an atom's hydrogen bonds are all "-" when their orders sum to its
        # hydrogen count and none is aromatic.
        for v, rec in zip(heavy_nodes, heavy):
            if not rec.ready:
                u, lbl = next((u, lbl) for u, lbl in m.graph.neighbors(v).items()
                              if labels[u] == "H" and lbl != "-")
                raise _bad_bond(*sorted((u, v)), lbl, labels)
    tokens = [rec.token for rec in heavy]
    aromatic = [rec.atom.aromatic for rec in heavy]
    return canonical_form(adj, _BOND_RANK, _initial_colors(heavy, adj),
                          lambda rank: _emit(tokens, aromatic, adj, rank))


def accept_product(m: Molecule) -> tuple[str, Molecule]:
    """Perceive, sanity-check and canonically name one connected, filled
    product of a rule; returns its canonical SMILES and the perceived
    molecule.  Raises :class:`~grw.chem.KekulizationError`, or
    :class:`ChemError` with the sanity violations joined by ``"; "``.

    An unfilled molecule is refused first.  The perceived molecule is
    tallied once, and the sanity check and the canonical writer both read
    that tally."""
    _require_filled(m)
    mol = perceive_aromaticity(m)
    tally = _tally(mol)
    issues = _sanity(mol, tally)
    if issues:
        raise ChemError("; ".join(v.message for v in issues))
    return _canonical(mol, tally), mol
