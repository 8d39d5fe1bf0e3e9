"""SMILES reading and canonical writing.

The dialect covers the needs of rule-based chemistry here: organic-subset
atoms, aromatic lowercase atoms, bracket atoms with hydrogen count, charge
and class, branches, ring-closure digits (including ``%NN``), explicit
bond symbols ``- = # :``, dot-separated components, and molecular-group
placeholders ``[{NAME}]`` expanded through a registry.  Stereochemistry
and isotopes are out of scope.

Bracket atoms carry a node label's text (:mod:`grw.chem.atoms`) with the
hydrogen count after the element symbol: reading decodes the charge and
class with :func:`parse_atom_label`, writing renders them with
:meth:`AtomLabel.render`.

Canonical output ranks the hydrogen-suppressed molecule with the search
of :func:`grw.match.canonical_form` (neighborhood refinement, then
individualization of tied atoms, pruned by twins such as the methyls of
a tert-butyl group and by the automorphisms found) and writes the
smallest SMILES over its leaves, so any node ordering of the same
molecule yields byte-identical SMILES.  The initial colours encode
each atom's label and hydrogen count and the edge codes its bonds, so the
written SMILES depends only on the ranked heavy-atom graph, as the search
requires.  A molecule must be connected, with each hydrogen bonded to one
heavy atom.  Writing uses explicit stacks and touches no interpreter
setting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..core import LabeledGraph
from ..match import canonical_form
from .atoms import (AtomLabel, ORGANIC_SUBSET, implicit_hydrogens, parse_atom_label,
                    ELEMENTS)
from .aromatic import perceive_aromaticity
from .molecule import ChemError, Molecule, _not_an_atom, _tally, sanity_check


class SmilesError(ChemError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


# Symbol, hydrogen count, then charge and class text for parse_atom_label.
_BRACKET_RE = re.compile(r"([A-Z][a-z]?|[bcnops])(?:H([0-9]*))?([-+:].*)?")
_TWO_LETTER = ("Cl", "Br")
_AROMATIC_ORGANIC = "bcnops"
_BOND_CHARS = "-=#:"


@dataclass
class _Atom:
    label: str
    aromatic: bool
    explicit_h: int | None  # None: infer; int: bracket-declared
    position: int
    group: str | None = None  # set for [{NAME}] placeholders


def _resolve_bond(a: _Atom, b: _Atom, sym: str | None) -> str:
    if sym is not None:
        return sym
    return ":" if (a.aromatic and b.aromatic) else "-"


def parse_smiles(text: str, groups=None) -> list[Molecule]:
    """Parse a SMILES string into molecules, one per dot component.

    Hydrogens are *not* filled here; bracket hydrogen counts are recorded
    on the returned molecules for :func:`fill_hydrogens` to honor.
    """
    atoms: list[_Atom] = []
    bonds: dict[tuple[int, int], str] = {}
    stack: list[int | None] = []
    prev: int | None = None
    pending: str | None = None
    ring: dict[int, tuple[int, str | None, int]] = {}

    def add_bond(a: int, b: int, sym: str | None, pos: int) -> None:
        if a == b:
            raise SmilesError("ring bond closes on its own atom", pos)
        key = (a, b) if a < b else (b, a)
        if key in bonds:
            raise SmilesError("duplicate bond between two atoms", pos)
        bonds[key] = _resolve_bond(atoms[a], atoms[b], sym)

    def add_atom(atom: _Atom) -> None:
        nonlocal prev, pending
        atoms.append(atom)
        idx = len(atoms) - 1
        if prev is not None:
            add_bond(prev, idx, pending, atom.position)
        elif pending is not None:
            raise SmilesError("bond symbol with no preceding atom", atom.position)
        prev = idx
        pending = None

    def ring_bond(num: int, pos: int) -> None:
        nonlocal pending
        if prev is None:
            raise SmilesError("ring-closure digit with no preceding atom", pos)
        if num in ring:
            a, sym_open, _ = ring.pop(num)
            sym = pending
            if sym_open is not None and sym is not None and sym_open != sym:
                raise SmilesError(f"ring bond {num} has conflicting bond symbols", pos)
            add_bond(a, prev, sym_open if sym_open is not None else sym, pos)
        else:
            ring[num] = (prev, pending, pos)
        pending = None

    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _BOND_CHARS:
            if pending is not None:
                raise SmilesError("two bond symbols in a row", i)
            pending = ch
            i += 1
        elif ch == "(":
            if prev is None:
                raise SmilesError("branch opens with no preceding atom", i)
            stack.append(prev)
            i += 1
        elif ch == ")":
            if not stack:
                raise SmilesError("unbalanced ')'", i)
            if pending is not None:
                raise SmilesError("dangling bond symbol before ')'", i)
            prev = stack.pop()
            i += 1
        elif ch == ".":
            if stack:
                raise SmilesError("'.' inside a branch", i)
            if pending is not None:
                raise SmilesError("dangling bond symbol before '.'", i)
            prev = None
            i += 1
        elif "0" <= ch <= "9":
            ring_bond(int(ch), i)
            i += 1
        elif ch == "%":
            if not re.fullmatch(r"[0-9]{2}", text[i + 1:i + 3]):
                raise SmilesError("'%' must be followed by two digits", i)
            ring_bond(int(text[i + 1:i + 3]), i)
            i += 3
        elif ch == "[":
            j = text.find("]", i)
            if j < 0:
                raise SmilesError("unterminated bracket atom", i)
            inner = text[i + 1:j]
            if inner.startswith("{") and inner.endswith("}"):
                name = inner[1:-1]
                if not re.fullmatch(r"[A-Za-z0-9_-]+", name or ""):
                    raise SmilesError(f"invalid group name {name!r}", i)
                add_atom(_Atom(label=f"[{{{name}}}]", aromatic=False,
                               explicit_h=0, position=i, group=name))
                i = j + 1
                continue
            m = _BRACKET_RE.fullmatch(inner)
            if not m:
                raise SmilesError(f"malformed bracket atom [{inner}]", i)
            sym, hcount, rest = m.groups()
            if sym.capitalize() not in ELEMENTS:
                raise SmilesError(f"unknown element {sym!r}", i)
            atom = parse_atom_label(sym + (rest or ""))
            if atom is None:
                raise SmilesError(f"malformed bracket atom [{inner}]", i)
            h = 0 if hcount is None else int(hcount or 1)
            add_atom(_Atom(atom.render(), atom.aromatic, h, i))
            i = j + 1
        elif ch.isalpha() or ch == "*":
            sym = None
            if text[i:i + 2] in _TWO_LETTER:
                sym = text[i:i + 2]
            elif ch in "BCNOPSFI":
                sym = ch
            elif ch in _AROMATIC_ORGANIC:
                sym = ch
            if sym is None:
                raise SmilesError(f"unexpected atom symbol {ch!r}", i)
            aromatic = sym.islower()
            element = sym.capitalize() if aromatic else sym
            add_atom(_Atom(AtomLabel(element, aromatic=aromatic).render(),
                           aromatic, None, i))
            i += len(sym)
        else:
            raise SmilesError(f"unexpected character {ch!r}", i)

    if stack:
        raise SmilesError("unbalanced '('", len(text))
    if pending is not None:
        raise SmilesError("dangling bond symbol at end of input", len(text))
    if ring:
        num, (_, _, pos) = sorted(ring.items())[0]
        raise SmilesError(f"unclosed ring bond {num}", pos)
    if not atoms:
        raise SmilesError("empty SMILES", 0)

    labels = [a.label for a in atoms]
    explicit = {i: a.explicit_h for i, a in enumerate(atoms) if a.explicit_h is not None}
    edge_list = [(u, v, lbl) for (u, v), lbl in bonds.items()]

    placeholders = [i for i, a in enumerate(atoms) if a.group is not None]
    if placeholders:
        if groups is None:
            name = atoms[placeholders[0]].group
            raise SmilesError(f"group placeholder [{{{name}}}] without a registry",
                              atoms[placeholders[0]].position)
        labels, edge_list, explicit = groups.expand_molecule_elements(
            labels, edge_list, explicit, {i: atoms[i].group for i in placeholders})

    graph = LabeledGraph.from_parts(labels, edge_list)

    from ..core import connected_components
    out = []
    for comp, members in connected_components(graph):
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


def _initial_colors(heavy: list[tuple], adj: list[dict[int, str]]) -> list[int]:
    """Colour of each heavy atom from its tally and its heavy-atom bonds."""
    sigs = []
    for (atom, h, *_), row in zip(heavy, adj):
        sigs.append((atom.element, atom.charge, atom.cls if atom.cls is not None else -1,
                     atom.aromatic, len(row), h, tuple(sorted(row.values()))))
    ranking = {s: r for r, s in enumerate(sorted(set(sigs)))}
    return [ranking[s] for s in sigs]


def _atom_token(atom: AtomLabel, h: int, heavy_single: int, heavy_aromatic: int) -> str:
    """Shortest token for an atom: bare organic-subset symbol when the
    implicit-hydrogen rules reproduce the actual hydrogen count, else the
    atom label with the hydrogen count after its symbol, in brackets."""
    text = atom.render()
    if atom.charge == 0 and atom.cls is None and atom.element in ORGANIC_SUBSET \
            and implicit_hydrogens(atom.element, 0, heavy_single, heavy_aromatic) == h:
        return text
    k = len(atom.element)
    hs = "" if h == 0 else "H" if h == 1 else f"H{h}"
    return f"[{text[:k]}{hs}{text[k:]}]"


def _emit(tokens: list[str], aromatic: list[bool], adj: list[dict[int, str]],
          rank: list[int]) -> str:
    """Write SMILES following ranks: lowest-rank root, neighbors by rank."""
    n = len(tokens)
    root = rank.index(0)

    # Depth-first spanning tree, children in rank order.  A bond to an
    # atom visited earlier that is not the parent closes a ring, opened
    # at that earlier atom.
    parent: dict[int, int | None] = {root: None}
    preindex = {root: 0}
    tree_children, back_open, back_close = ([[] for _ in range(n)] for _ in range(3))
    walk = [(root, iter(sorted(adj[root], key=rank.__getitem__)))]
    while walk:
        v, pending = walk[-1]
        for u in pending:
            if u not in preindex:
                preindex[u] = len(preindex)
                parent[u] = v
                tree_children[v].append(u)
                walk.append((u, iter(sorted(adj[u], key=rank.__getitem__))))
                break
            if preindex[u] < preindex[v] and u != parent[v]:
                back_open[u].append(v)
                back_close[v].append(u)
        else:
            walk.pop()
    if len(preindex) < n:
        raise ChemError("canonical_smiles requires a connected molecule")

    digit_of: dict[tuple[int, int], int] = {}
    free: list[int] = list(range(1, 100))
    out: list[str] = []

    def bond_str(a: int, b: int) -> str:
        lbl = adj[a][b]
        if lbl == "-":
            return "" if not (aromatic[a] and aromatic[b]) else "-"
        if lbl == ":":
            return "" if (aromatic[a] and aromatic[b]) else ":"
        return lbl

    def digit_token(d: int) -> str:
        return str(d) if d < 10 else f"%{d:02d}"

    # Atoms (ints) and literal text (strs), popped in output order.
    todo: list[int | str] = [root]
    while todo:
        v = todo.pop()
        if isinstance(v, str):
            out.append(v)
            continue
        out.append(tokens[v])
        for u in sorted(back_close[v], key=lambda u: preindex[u]):
            d = digit_of.pop((u, v))
            free.append(d)
            free.sort()
            out.append(digit_token(d))
        for u in sorted(back_open[v], key=lambda u: preindex[u]):
            d = free.pop(0)
            digit_of[(v, u)] = d
            out.append(bond_str(v, u) + digit_token(d))
        kids = tree_children[v]
        if kids:
            # The last child continues the chain; earlier ones are branches.
            todo += [kids[-1], bond_str(v, kids[-1])]
            for u in reversed(kids[:-1]):
                todo += [")", u, bond_str(v, u), "("]
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
    if not m.filled:
        raise ChemError("canonical_smiles requires a hydrogen-filled molecule")
    atoms, heavy_nodes, adj, odd_edges = _tally(m)
    if not heavy_nodes:
        if m.graph.node_count == 1:
            return "[H]"
        if m.graph.node_count == 2 and m.graph.edge_count == 1:
            return "[H][H]"
        raise ChemError("cannot canonicalize an all-hydrogen fragment this large")
    heavy = [atoms[v] for v in heavy_nodes]
    for v, (atom, *_) in zip(heavy_nodes, heavy):
        if atom is None:
            raise _not_an_atom(m.graph, v)
    labels = m.graph.node_labels
    if any(lbl == "H" and (atoms[v][1] or m.graph.degree(v) != 1)
           for v, lbl in enumerate(labels)):
        raise ChemError("canonical_smiles requires every hydrogen bonded to one heavy atom")
    if odd_edges:
        raise _bad_bond(*odd_edges[0], labels)
    # With no odd label, every bond to a hydrogen orders at least 1, so
    # an atom's hydrogen bonds are all "-" when their orders sum to its
    # hydrogen count and none is aromatic.
    for v, (_, h, single, arom, heavy_single, heavy_arom) in zip(heavy_nodes, heavy):
        if single - heavy_single != h or arom != heavy_arom:
            u, lbl = next((u, lbl) for u, lbl in m.graph.neighbors(v).items()
                          if labels[u] == "H" and lbl != "-")
            raise _bad_bond(*sorted((u, v)), lbl, labels)
    tokens = [_atom_token(atom, h, single, arom) for atom, h, _, _, single, arom in heavy]
    aromatic = [atom.aromatic for atom, *_ in heavy]
    return canonical_form([[(u, _BOND_RANK[lbl]) for u, lbl in row.items()] for row in adj],
                          _initial_colors(heavy, adj),
                          lambda rank: _emit(tokens, aromatic, adj, rank))


def accept_product(m: Molecule) -> tuple[str, Molecule]:
    """Perceive, sanity-check and canonically name one connected, filled
    product of a rule; returns its canonical SMILES and the perceived
    molecule.  Raises :class:`~grw.chem.KekulizationError`, or
    :class:`ChemError` with the sanity violations joined by ``"; "``."""
    mol = perceive_aromaticity(m)
    issues = sanity_check(mol)
    if issues:
        raise ChemError("; ".join(v.message for v in issues))
    return canonical_smiles(mol), mol
