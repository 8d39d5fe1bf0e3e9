"""Graphs and molecules full of twins, and their recorded canonical strings.

Two vertices are twins when they have the same label and the same
labelled edge to every other vertex: the hydrogens on one atom, the
leaves of a star, the vertices of a clique or of one side of a complete
bipartite graph.  :func:`key_cases` builds graphs made of them (formyl
carbons with 1-40 hydrogens, ``K_n``, ``K_{a,b}``, stars with mixed
leaf and edge labels, explicit-hydrogen alkanes and the distinct
Diels-Alder products on three hosts); :func:`smiles_cases` lists
molecules with heavy-atom twins (isopropyl, tert-butyl, gem-dimethyl,
gem-diol).

``data/twin_keys.json`` holds the ``canonical_key`` of every graph and
the ``canonical_smiles`` of every molecule, as recorded when it was
written; ``tests/test_canonical_search.py`` checks that they still come
out the same.  Rewrite the file with ``PYTHONPATH=src python
tests/twin_corpus.py`` (only when a string is meant to change).
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from random import Random

from grw import LabeledGraph, apply_all, canonical_key, disjoint_union, parse_gml_rule
from grw.chem import (canonical_smiles, check_chem_rule, fill_hydrogens, parse_smiles,
                      perceive_aromaticity)

TWIN_KEYS = Path(__file__).resolve().parent / "data" / "twin_keys.json"

ALKANES = {
    "neopentane": "CC(C)(C)C",
    "isobutane": "CC(C)C",
    "tri-tert-butylmethane": "CC(C)(C)C(C(C)(C)C)C(C)(C)C",
    "tetra-tert-butylmethane": "CC(C)(C)C(C(C)(C)C)(C(C)(C)C)C(C)(C)C",
}

DIELS_ALDER_HOSTS = ["C=CC(C)=C.C=CC", "C=CC=CC=CC=CC=C.C=CC.C=C", "C=CC=C.C=C(C)C.C=C"]

SMILES_CASES = {
    "isopropanol": "CC(C)O",
    "isopropylamine": "NC(C)C",
    "diisopropyl ether": "CC(C)OC(C)C",
    "tert-butanol": "OC(C)(C)C",
    "tert-butylbenzene": "c1ccccc1C(C)(C)C",
    "di-tert-butyl ketone": "CC(C)(C)C(=O)C(C)(C)C",
    "gem-dimethylcyclohexane": "CC1(C)CCCCC1",
    "gem-dimethyl chain": "CCC(C)(C)CC",
    "neopentyl glycol": "OCC(C)(C)CO",
    "methanediol": "OCO",
    "acetone hydrate": "CC(O)(O)C",
    "chloral hydrate": "OC(O)C(Cl)(Cl)Cl",
    "glyoxal hydrate": "OC(O)C(O)O",
}


def _graph(labels: list[str], edges) -> LabeledGraph:
    return LabeledGraph.from_parts(labels, list(edges))


def formyl(k: int) -> LabeledGraph:
    """A ``C`` with ``k`` ``H`` leaves and one ``=O``."""
    return _graph(["C", "O"] + ["H"] * k, [(0, 1, "=")] + [(0, 2 + i, "-") for i in range(k)])


def clique(n: int) -> LabeledGraph:
    return _graph(["*"] * n, [(u, v, "*") for u in range(n) for v in range(u + 1, n)])


def biclique(a: int, b: int) -> LabeledGraph:
    return _graph(["*"] * (a + b), [(u, a + v, "*") for u in range(a) for v in range(b)])


def mixed_star(rng: Random) -> LabeledGraph:
    """A centre with 3-12 leaves drawn from a few labels and edge labels,
    in shuffled node order, so most leaves have twins and some do not."""
    leaves = [(rng.choice("HHOX"), rng.choice("--=")) for _ in range(rng.randint(3, 12))]
    order = list(range(len(leaves) + 1))
    rng.shuffle(order)
    centre, places = order[0], order[1:]
    labels = [""] * len(order)
    labels[centre] = rng.choice("CX")
    for place, (label, _) in zip(places, leaves):
        labels[place] = label
    return _graph(labels, [(centre, place, bond) for place, (_, bond) in zip(places, leaves)])


def molecule(smiles: str):
    (m,) = parse_smiles(smiles)
    return perceive_aromaticity(fill_hydrogens(m))


def diels_alder_products(smiles: str) -> list[LabeledGraph]:
    text = (resources.files("grw") / "assets" / "diels_alder.gml").read_text()
    _, rule = check_chem_rule(parse_gml_rule(text))
    host, _ = disjoint_union([fill_hydrogens(m).graph for m in parse_smiles(smiles)])
    return [r.graph for r in apply_all(rule, host, dedup=True)]


def key_cases() -> dict[str, LabeledGraph]:
    """Every graph whose ``canonical_key`` the corpus pins, by name."""
    cases = {f"formyl H{k}": formyl(k) for k in range(1, 41)}
    cases |= {f"K{n}": clique(n) for n in range(1, 10)}
    cases |= {f"K{a},{b}": biclique(a, b) for a in range(1, 5) for b in range(1, 5)}
    rng = Random(2014)
    cases |= {f"star {i}": mixed_star(rng) for i in range(12)}
    cases |= {name: molecule(smiles).graph for name, smiles in ALKANES.items()}
    for smiles in DIELS_ALDER_HOSTS:
        for i, g in enumerate(diels_alder_products(smiles)):
            cases[f"Diels-Alder {smiles} {i}"] = g
    return cases


def record() -> dict:
    return {"keys": {name: canonical_key(g) for name, g in key_cases().items()},
            "smiles": {name: canonical_smiles(molecule(s)) for name, s in SMILES_CASES.items()}}


if __name__ == "__main__":
    TWIN_KEYS.write_text(json.dumps(record(), indent=1) + "\n")
