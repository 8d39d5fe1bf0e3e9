"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own code: molecules are built as
heavy-atom graphs with bond orders, their formulas are computed from a
plain valence table, and they are written as SMILES by a writer that picks
a random root and random branch order.  No ``grw`` code is used, so the
program only ever sees the generated text and graphs.
"""

from __future__ import annotations

import itertools
import math
import random

VALENCE = {"C": 4, "N": 3, "O": 2, "S": 2}


class Mol:
    """A heavy-atom graph: element symbols and bond orders (1 or 2)."""

    def __init__(self, atoms: list[str], bonds: dict[tuple[int, int], int]):
        self.atoms = atoms
        self.bonds = bonds

    def neighbors(self, v: int) -> list[int]:
        return [b if a == v else a for a, b in self.bonds if v in (a, b)]

    def used(self, v: int) -> int:
        return sum(o for (a, b), o in self.bonds.items() if v in (a, b))

    def h_count(self, v: int) -> int:
        return VALENCE[self.atoms[v]] - self.used(v)

    def formula(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for v, el in enumerate(self.atoms):
            counts[el] = counts.get(el, 0) + 1
        h = sum(self.h_count(v) for v in range(len(self.atoms)))
        if h:
            counts["H"] = h
        return counts

    def h_symmetry(self) -> int:
        """Product of h! over atoms: a lower bound on the leaves an
        individualization search without automorphism pruning visits on
        the explicit-hydrogen graph."""
        return math.prod(math.factorial(self.h_count(v))
                         for v in range(len(self.atoms)))


def _key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def write_smiles(m: Mol, rng: random.Random) -> str:
    """SMILES with a random root and random branch order; double bonds
    (including Kekulé ring bonds) are written explicitly."""
    n = len(m.atoms)
    adj = {v: m.neighbors(v) for v in range(n)}
    root = rng.randrange(n)
    parent = {root: None}
    children: dict[int, list[int]] = {v: [] for v in range(n)}
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        nbrs = adj[v][:]
        rng.shuffle(nbrs)
        for u in nbrs:
            if u not in seen:
                seen.add(u)
                parent[u] = v
                children[v].append(u)
                stack.append(u)
    # Children were discovered in stack order; re-derive a DFS preorder so
    # ring closures open at the atom written first.
    pre: dict[int, int] = {}

    def number(v: int) -> None:
        todo = [v]
        while todo:
            x = todo.pop()
            pre[x] = len(pre)
            todo.extend(reversed(children[x]))

    number(root)
    tree = {_key(v, p) for v, p in parent.items() if p is not None}
    closures = sorted((k for k in m.bonds if k not in tree),
                      key=lambda k: (min(pre[k[0]], pre[k[1]]), max(pre[k[0]], pre[k[1]])))
    opens: dict[int, list[tuple[int, str]]] = {v: [] for v in range(n)}
    free = list(range(1, 100))
    digit_of: dict[tuple[int, int], int] = {}
    events = []
    for k in closures:
        first, second = sorted(k, key=lambda x: pre[x])
        events.append((pre[first], 0, k))
        events.append((pre[second], 1, k))
    events.sort()
    for _, kind, k in events:
        first, second = sorted(k, key=lambda x: pre[x])
        if kind == 0:
            d = free.pop(0)
            digit_of[k] = d
            opens[first].append((d, "=" if m.bonds[k] == 2 else ""))
        else:
            d = digit_of[k]
            opens[second].append((d, ""))
            free.insert(0, d)
            free.sort()

    def ring_text(d: int) -> str:
        return str(d) if d < 10 else f"%{d}"

    out: list[str] = []

    def emit(v: int) -> None:
        todo: list = [v]
        while todo:
            x = todo.pop()
            if isinstance(x, str):
                out.append(x)
                continue
            p = parent[x]
            if p is not None and m.bonds[_key(x, p)] == 2:
                out.append("=")
            out.append(m.atoms[x])
            for d, sym in opens[x]:
                out.append(sym + ring_text(d))
            kids = children[x]
            tail: list = []
            for i, c in enumerate(kids):
                if i < len(kids) - 1:
                    tail.extend(["(", c, ")"])
                else:
                    tail.append(c)
            todo.extend(reversed(tail))

    emit(root)
    return "".join(out)


def _tree(rng: random.Random, n: int, elements: str) -> Mol:
    atoms = ["C"]
    bonds: dict[tuple[int, int], int] = {}
    mol = Mol(atoms, bonds)
    while len(atoms) < n:
        open_atoms = [v for v in range(len(atoms)) if mol.h_count(v) >= 1]
        p = rng.choice(open_atoms)
        atoms.append(rng.choice(elements))
        bonds[_key(p, len(atoms) - 1)] = 1
    return mol


def _distances(m: Mol, src: int) -> dict[int, int]:
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for u in m.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def _add_rings(rng: random.Random, m: Mol, count: int) -> None:
    for _ in range(count):
        pairs = []
        for a in range(len(m.atoms)):
            if m.h_count(a) < 1:
                continue
            d = _distances(m, a)
            pairs.extend((a, b) for b, k in d.items()
                         if b > a and 3 <= k <= 6 and m.h_count(b) >= 1)
        if not pairs:
            return
        a, b = rng.choice(pairs)
        m.bonds[(a, b)] = 1


def _add_terminal_double_bonds(rng: random.Random, m: Mol) -> None:
    for (a, b) in list(m.bonds):
        for leaf, other in ((a, b), (b, a)):
            if (len(m.neighbors(leaf)) == 1 and m.h_count(leaf) >= 1
                    and m.h_count(other) >= 1 and rng.random() < 0.4):
                m.bonds[(a, b)] = 2
                break


_KEKULE_CORES = {
    # heavy atoms, bonds (Kekulé), atoms that may carry a substituent
    "benzene": ("CCCCCC", [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 5, 2), (0, 5, 1)]),
    "pyridine": ("NCCCCC", [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 5, 2), (0, 5, 1)]),
    "naphthalene": ("CCCCCCCCCC", [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 5, 2),
                                   (0, 5, 1), (4, 6, 1), (6, 7, 2), (7, 8, 1), (8, 9, 2),
                                   (3, 9, 1)]),
}


def _kekule_molecule(rng: random.Random) -> Mol:
    name = rng.choice(sorted(_KEKULE_CORES))
    atoms_txt, bond_list = _KEKULE_CORES[name]
    m = Mol(list(atoms_txt), {_key(a, b): o for a, b, o in bond_list})
    for _ in range(rng.randint(1, 3)):
        sites = [v for v in range(len(m.atoms)) if m.h_count(v) >= 1]
        site = rng.choice(sites)
        sub = _tree(rng, rng.randint(1, 3), "CCNOO")
        base = len(m.atoms)
        m.atoms.extend(sub.atoms)
        for (a, b), o in sub.bonds.items():
            m.bonds[(a + base, b + base)] = o
        m.bonds[(site, base)] = 1
    _add_terminal_double_bonds(rng, m)
    return m


def random_ordinary(rng: random.Random, max_h_symmetry: int) -> Mol:
    """An ordinary item: a C/N/O/S chain, a ring system or a Kekulé
    aromatic with substituents, redrawn until its hydrogen symmetry stays
    under ``max_h_symmetry``."""
    while True:
        kind = rng.random()
        if kind < 0.35:
            m = _tree(rng, rng.randint(4, 10), "CCCCNOOS")
            _add_terminal_double_bonds(rng, m)
        elif kind < 0.7:
            m = _tree(rng, rng.randint(5, 11), "CCCCNOS")
            _add_rings(rng, m, rng.randint(1, 2))
            _add_terminal_double_bonds(rng, m)
        else:
            m = _kekule_molecule(rng)
        if m.h_symmetry() <= max_h_symmetry:
            return m


def make_mol(atoms: str, bonds: list[tuple[int, int, int]]) -> Mol:
    """A molecule from element letters and (atom, atom, order) triples."""
    return Mol(list(atoms), {_key(a, b): o for a, b, o in bonds})


def _chain(n: int) -> list[tuple[int, int, int]]:
    return [(i, i + 1, 1) for i in range(n - 1)]


def symmetric_tier() -> dict[str, Mol]:
    """Fixed molecules with large automorphism groups."""
    cubane = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (4, 5, 1), (5, 6, 1),
              (6, 7, 1), (7, 4, 1), (0, 4, 1), (1, 5, 1), (2, 6, 1), (3, 7, 1)]
    # Coronene: inner ring 0-5, periphery ring 6..23 whose every third atom
    # is bonded to an inner atom.  Doubles form a perfect matching (Kekulé).
    inner = [(i, (i + 1) % 6) for i in range(6)]
    spokes = [(i, 6 + 3 * i) for i in range(6)]
    outer = [(6 + j, 6 + (j + 1) % 18) for j in range(18)]
    double = {(0, 1), (2, 3), (4, 5)} | {(6 + 2 * k, 7 + 2 * k) for k in range(9)}
    coronene = [(a, b, 2 if (a, b) in double else 1) for a, b in inner + spokes + outer]
    return {
        "isobutane": make_mol("CCCC", [(0, 1, 1), (1, 2, 1), (1, 3, 1)]),
        "tert-butanol": make_mol("CCCCO", [(0, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1)]),
        "cyclohexane": make_mol("CCCCCC", _chain(6) + [(0, 5, 1)]),
        "mesitylene": make_mol(
            "CCCCCCCCC", [(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 5, 2), (0, 5, 1),
                          (0, 6, 1), (2, 7, 1), (4, 8, 1)]),
        "pentaerythritol": make_mol(
            "CCCCCOOOO", [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1),
                          (1, 5, 1), (2, 6, 1), (3, 7, 1), (4, 8, 1)]),
        "cubane": make_mol("CCCCCCCC", cubane),
        "coronene": make_mol("C" * 24, coronene),
    }


# Seed-independent SMILES: these items fail by deadline on every seed
# while canonicalization lacks automorphism pruning.
CLIFF_TIER = {
    "neopentane": "CC(C)(C)C",
    "hexamethylbenzene": "CC1=C(C)C(C)=C(C)C(C)=C1C",
    "tri-tert-butylmethane": "CC(C)(C)C(C(C)(C)C)C(C)(C)C",
    "tetra-tert-butylmethane": "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C",
}

CLIFF_FORMULAS = {
    "neopentane": {"C": 5, "H": 12},
    "hexamethylbenzene": {"C": 12, "H": 18},
    "tri-tert-butylmethane": {"C": 13, "H": 28},
    "tetra-tert-butylmethane": {"C": 17, "H": 36},
}


# -- rewrite inputs -----------------------------------------------------------

def life_soup(rng: random.Random, size: int = 32, density: float = 0.35) -> set[tuple[int, int]]:
    return {(r, c) for r in range(size) for c in range(size) if rng.random() < density}


def sudoku_puzzle(rng: random.Random, blanks: int) -> str:
    """Blank ``blanks`` cells of a randomly permuted solution grid."""
    base = [[(3 * (r % 3) + r // 3 + c) % 9 + 1 for c in range(9)] for r in range(9)]
    digits = list(range(1, 10))
    rng.shuffle(digits)

    def lines() -> list[int]:
        bands = [0, 1, 2]
        rng.shuffle(bands)
        out = []
        for b in bands:
            inner = [0, 1, 2]
            rng.shuffle(inner)
            out.extend(3 * b + i for i in inner)
        return out

    rows, cols = lines(), lines()
    grid = [[digits[base[r][c] - 1] for c in cols] for r in rows]
    if rng.random() < 0.5:
        grid = [list(col) for col in zip(*grid)]
    cells = [str(grid[r][c]) for r in range(9) for c in range(9)]
    for i in rng.sample(range(81), blanks):
        cells[i] = "0"
    return "".join(cells)


def ydelta_graphs() -> dict[str, tuple[int, list[tuple[int, int]]]]:
    """Small symmetric graphs for Y-Δ exploration: (node count, edges)."""
    def wheel(k: int):
        return k + 1, [(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)]

    return {
        "K4": (4, list(itertools.combinations(range(4), 2))),
        "prism": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
        "K3,3": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
        "cube": (8, [(a, b) for a in range(8) for b in range(a + 1, 8)
                     if bin(a ^ b).count("1") == 1]),
        "Petersen": (10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                     + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
        "W5": wheel(5),
        "W6": wheel(6),
    }


def permute_edges(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(_key(perm[a], perm[b]) for a, b in edges)


def diels_alder_host() -> list[Mol]:
    """A conjugated decapentaene with propene and ethylene.  The make-up is
    fixed (the seed only changes how it is written) because the dedup cost
    varies more than tenfold between polyene/alkene mixes."""
    decapentaene = make_mol("C" * 10, [(i, i + 1, 2 if i % 2 == 0 else 1)
                                                   for i in range(9)])
    propene = make_mol("CCC", [(0, 1, 2), (1, 2, 1)])
    ethylene = make_mol("CC", [(0, 1, 2)])
    return [decapentaene, propene, ethylene]
