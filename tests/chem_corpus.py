"""Seeded single mutations of molecules, and what the chemistry layer makes of them.

Each corpus entry names a base SMILES and lists cases, each at most one
edit of the base's hydrogen-filled graph: one node relabelled (another element, a charge,
the aromatic flag flipped, or a label that is no atom), one edge
relabelled (``-`` ``=`` ``#`` ``:`` or the non-bond ``~``), or one
hydrogen removed or added.  The first case of each base has no edit and
pins the base's own reading.  The bases are the formose molecules up to
iteration 5, the aromatic molecules of ``tests/test_canonical.py`` and a
few odd cases.  :func:`outcome` runs ``fill_hydrogens``, ``sanity_check``,
``perceive_aromaticity`` and ``canonical_smiles`` on the edited graph and
reduces each result, or its error, to plain JSON data.

``data/chem_corpus.json`` holds the edits with the outcomes recorded when
it was written; ``tests/test_chem_basics.py`` checks that the chemistry
layer still gives them.  Rewrite the file with
``PYTHONPATH=src:tests python tests/chem_corpus.py`` (only when an outcome
is meant to change).
"""

from __future__ import annotations

import json
import sys
from importlib import resources
from pathlib import Path
from random import Random

from grw import LabeledGraph, parse_gml_rule
from grw.chem import (AROMATIC_ELEMENTS, AtomLabel, Molecule, canonical_smiles,
                      check_chem_rule, fill_hydrogens, parse_atom_label, parse_molecule,
                      perceive_aromaticity, sanity_check)
from grw.network import ExpansionConfig, expand

CORPUS = Path(__file__).resolve().parent / "data" / "chem_corpus.json"

# Aromatic molecules of tests/test_canonical.py, plain and Kekule spellings.
AROMATIC = [
    "c1ccccc1", "C1=CC=CC=C1", "Cc1ccccc1", "CC1=CC=CC=C1",
    "c1ccc2ccccc2c1", "c1ccncc1", "c1cc[nH]c1", "c1ccoc1", "c1ccsc1",
    "c1cnc[nH]1", "Oc1ccccc1", "Nc1ccccc1", "Cc1ccc(C)cc1",
    "c1ccc(cc1)c1ccccc1", "NC(=O)c1ccccc1", "c1cc[nH+:4]cc1", "c1cc[nH+]cc1",
    "NC(=O)C1[CH2]C=CN(C=1)C2OC(COP(O)(=O)OP(O)(=O)"
    "OCC3OC(C(O)C3O)n4cnc5c(N)ncnc54)C(O)C2O",
    "NC(=O)c1ccc[n+](c1)C2OC(COP(O)(=O)OP(O)(=O)"
    "OCC3OC(C(O)C3O)n4cnc5c(N)ncnc54)C(O)C2O",
]

# Fixed edits worth pinning whatever the seed draws: a hydrogen held by a
# double bond (which canonical SMILES refuses), and a non-bond edge label
# between heavy atoms.
FIXED = [
    ("[H]=C", None),
    ("CC", ["bond", 0, 1, "~"]),
    ("OCC=O", ["bond", 1, 2, "~"]),
    ("c1ccccc1", ["bond", 0, 1, "~"]),
    ("CC", ["atom", 0, "X"]),
]

ELEMENTS = ["C", "N", "O", "S", "P", "B", "F", "Cl", "H", "Si"]
CHARGES = ["+", "-", "+2", "-2"]
NON_ATOMS = ["X", "*", "Q", "c:x"]
BONDS = ["-", "=", "#", ":", "~"]


def formose_smiles(iterations: int = 5) -> list[str]:
    """Canonical SMILES of the formose network up to ``iterations``."""
    rules = []
    for name in ("keto_enol.gml", "keto_enol_reverse.gml", "aldol.gml", "aldol_reverse.gml"):
        text = (resources.files("grw") / "assets" / name).read_text()
        rules.append(check_chem_rule(parse_gml_rule(text))[1])
    seeds = [perceive_aromaticity(fill_hydrogens(parse_molecule(s))) for s in ("OCC=O", "C=O")]
    return sorted(expand(seeds, rules, ExpansionConfig(iterations=iterations)).molecules)


def base_graph(smiles: str) -> LabeledGraph:
    return fill_hydrogens(parse_molecule(smiles)).graph


def _relabel(label: str, rng: Random) -> str:
    atom = parse_atom_label(label)
    way = rng.choice(("element", "charge", "aromatic", "non-atom"))
    if way == "aromatic" and atom is not None and atom.element in AROMATIC_ELEMENTS:
        return AtomLabel(atom.element, atom.charge, atom.cls, not atom.aromatic).render()
    if way == "charge" and atom is not None:
        return (atom.element.lower() if atom.aromatic else atom.element) + rng.choice(CHARGES)
    if way == "non-atom":
        return rng.choice(NON_ATOMS)
    return rng.choice([e for e in ELEMENTS if e != label])


def mutations(g: LabeledGraph, rng: Random) -> list[list]:
    """One atom edit, one bond edit and one hydrogen edit of ``g``."""
    v = rng.randrange(g.node_count)
    edits = [["atom", v, _relabel(g.label(v), rng)]]
    edges = g.edges()
    if edges:
        u, w, lbl = rng.choice(edges)
        edits.append(["bond", u, w, rng.choice([b for b in BONDS if b != lbl])])
    hydrogens = [x for x in g.nodes() if g.label(x) == "H"]
    if hydrogens and rng.random() < 0.5:
        edits.append(["drop-h", rng.choice(hydrogens)])
    else:
        edits.append(["add-h", rng.randrange(g.node_count)])
    return edits


def apply_edit(g: LabeledGraph, edit: list | None) -> LabeledGraph:
    if edit is None:
        return g
    labels = list(g.node_labels)
    edges = g.edges()
    if edit[0] == "atom":
        labels[edit[1]] = edit[2]
    elif edit[0] == "bond":
        _, a, b, lbl = edit
        edges = [(u, v, lbl if (u, v) == (a, b) else old) for u, v, old in edges]
    elif edit[0] == "add-h":
        labels.append("H")
        edges.append((edit[1], len(labels) - 1, "-"))
    else:
        gone = edit[1]
        labels.pop(gone)
        shift = lambda x: x - (x > gone)  # noqa: E731
        edges = [(shift(u), shift(v), lbl) for u, v, lbl in edges if gone not in (u, v)]
    return LabeledGraph.from_parts(labels, edges)


def _error(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def _changes(before: LabeledGraph, after: LabeledGraph) -> list[str]:
    """What ``after`` relabels (``v:label``), adds or rebonds (``u-v:label``)
    and unbonds (``u-v``) relative to ``before``."""
    n = before.node_count
    old = {(u, v): lbl for u, v, lbl in before.edges()}
    return ([f"{v}:{after.label(v)}" for v in after.nodes()
             if v >= n or after.label(v) != before.label(v)]
            + [f"{u}-{v}:{lbl}" for u, v, lbl in after.edges() if old.get((u, v)) != lbl]
            + [f"{u}-{v}" for u, v, _ in before.edges() if not after.has_edge(u, v)])


def _canon(m: Molecule):
    try:
        return canonical_smiles(m)
    except Exception as exc:  # the error is part of the outcome
        return _error(exc)


def outcome(g: LabeledGraph) -> dict:
    """What the chemistry layer makes of ``g``, as JSON data.

    ``fill`` and ``fill canon`` read ``g`` as an unfilled molecule; the
    sanity check, perception and ``canon`` read it as a filled one.
    """
    out: dict = {}
    try:
        filled = fill_hydrogens(Molecule(g))
        out["fill"] = _changes(g, filled.graph)
        out["fill canon"] = _canon(filled)
    except Exception as exc:
        out["fill"] = _error(exc)
    m = Molecule(g, {}, filled=True)
    out["sanity"] = [[v.kind, v.node, v.message] for v in sanity_check(m)]
    try:
        out["perceive"] = _changes(g, perceive_aromaticity(m).graph)
    except Exception as exc:
        out["perceive"] = _error(exc)
    out["canon"] = _canon(m)
    return out


def bases() -> list[tuple[str, str]]:
    """``(group, smiles)`` of every base molecule."""
    return ([("formose", s) for s in formose_smiles()]
            + [("aromatic", s) for s in AROMATIC]
            + [("fixed", s) for s in dict.fromkeys(s for s, _ in FIXED)])


def corpus(seed: int) -> list[dict]:
    """Every base with its seeded mutations or fixed edits, each as an
    ``[edit, outcome]`` case."""
    rng = Random(seed)
    entries = []
    for group, smiles in bases():
        g = base_graph(smiles)
        edits = [None] + (mutations(g, rng) if group != "fixed" else
                          [e for s, e in FIXED if s == smiles and e is not None])
        entries.append({"group": group, "base": smiles,
                        "cases": [[edit, outcome(apply_edit(g, edit))] for edit in edits]})
    return entries


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2027
    lines = ",\n".join(json.dumps(entry) for entry in corpus(seed))
    CORPUS.write_text(f'{{"seed": {seed}, "entries": [\n{lines}\n]}}\n')
