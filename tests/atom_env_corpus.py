"""Star molecules around one centre atom, and what the valence model makes of them.

Each case is a star: node 0 is the centre, nodes ``1..k`` are its heavy
neighbours (``C``, or ``c`` across an aromatic bond), then come the
hydrogens bonded to the centre and those that saturate each neighbour.
The centre runs over the labels of :data:`CENTRES` (atoms of every
valence rule, charges, a class, an element without a rule, and labels
that are no atom and hold format characters), 0-4 explicit hydrogens and
every multiset of up to four heavy bonds from ``- = # :``.  :func:`outcome` records the sanity check of the
star, the hydrogens :func:`fill_hydrogens` adds to each node, the
kekulization of the filled star when the centre has an aromatic bond
(of the star itself when the fill fails), and the canonical SMILES of the
filled star; each as its value, or as the error's type and message.
Sanity violations are recorded in full for the centre; the neighbours'
depend on their bond alone and are only counted.

``data/atom_env_corpus.json`` holds the outcomes recorded when it was
written; ``tests/test_chem_basics.py`` checks that the chemistry layer
still gives them.  Rewrite the file with
``PYTHONPATH=src:tests python tests/atom_env_corpus.py`` (only when an
outcome is meant to change).
"""

from __future__ import annotations

import json
from itertools import combinations_with_replacement
from pathlib import Path

from grw import LabeledGraph
from grw.chem import Molecule, canonical_smiles, fill_hydrogens, kekulize, sanity_check

CORPUS = Path(__file__).resolve().parent / "data" / "atom_env_corpus.json"

CENTRES = ("C c N n N+ n+ N- O o O- O+ o+ S s S+ P p B b F Cl Br I H C:1 c-2 Se".split()
           + ["X%d", "{0}", "}"])
BONDS = [bonds for k in range(5) for bonds in combinations_with_replacement("-=#:", k)]
# Each heavy neighbour's label and hydrogen count across a bond.
NEIGHBOURS = {"-": ("C", 3), "=": ("C", 2), "#": ("C", 1), ":": ("c", 2)}


def star(centre: str, h: int, bonds: str) -> LabeledGraph:
    labels = [centre] + [NEIGHBOURS[b][0] for b in bonds] + ["H"] * h
    edges = [(0, i, b) for i, b in enumerate(bonds, 1)]
    edges += [(0, i, "-") for i in range(len(bonds) + 1, len(labels))]
    for i, b in enumerate(bonds, 1):
        for _ in range(NEIGHBOURS[b][1]):
            labels.append("H")
            edges.append((i, len(labels) - 1, "-"))
    return LabeledGraph.from_parts(labels, edges)


def _error(exc: Exception) -> list[str]:
    return [type(exc).__name__, str(exc)]


def _kekule(m: Molecule):
    """The heavy-atom labels of ``kekulize(m)``, and the labels of the
    centre's bonds in neighbour order."""
    try:
        g = kekulize(m).graph
    except Exception as exc:  # the error is part of the outcome
        return _error(exc)
    heavy = [lbl for lbl in g.node_labels if lbl != "H"]
    return [" ".join(heavy), "".join(g.edge_label(0, v) for v in range(1, len(heavy)))]


def outcome(g: LabeledGraph) -> dict:
    """What the chemistry layer makes of the star ``g``, as JSON data.

    ``sanity`` lists the violations on the centre and on no node, and
    ``others`` counts the rest; ``fill`` maps each node that gains
    hydrogens to their number.
    """
    found = sanity_check(Molecule(g, {}, filled=True))
    out: dict = {"sanity": [[v.kind, v.node, v.message] for v in found if not v.node],
                 "others": sum(1 for v in found if v.node)}
    try:
        filled = fill_hydrogens(Molecule(g))
    except Exception as exc:
        out["fill"] = _error(exc)
        filled = None
    else:
        added: dict[int, int] = {}
        for v in range(g.node_count, filled.graph.node_count):
            u = next(iter(filled.graph.neighbors(v)))
            added[u] = added.get(u, 0) + 1
        out["fill"] = added
    if ":" in g.neighbors(0).values():
        out["kekulize"] = _kekule(filled or Molecule(g, {}, filled=True))
    if filled is not None:
        try:
            out["canon"] = canonical_smiles(filled)
        except Exception as exc:
            out["canon"] = _error(exc)
    return out


def stars() -> list[tuple[str, int, str]]:
    """``(centre, hydrogens, bonds)`` of every star, in corpus order."""
    return [(centre, h, "".join(bonds)) for centre in CENTRES for h in range(5)
            for bonds in BONDS]


def corpus() -> list[list]:
    """``[centre, hydrogens, bonds, outcome]`` of every star."""
    return [[centre, h, bonds, outcome(star(centre, h, bonds))]
            for centre, h, bonds in stars()]


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(case, ensure_ascii=False, separators=(",", ":"))
                        for case in corpus())
    CORPUS.write_text(f"[\n{lines}\n]\n")
