"""Seeded character edits of SMILES texts, and what the reader makes of them.

Each corpus entry names a base SMILES and lists the edits that turn it
into a mutated text: 1-3 characters deleted, inserted or replaced, the
new characters drawn from SMILES syntax, letters, a space, a newline and
``²``, or from the base itself.  The first entry of each base has no
edits and pins the base's own reading.  The bases are the SMILES of
``tests/test_canonical.py``, the grouped NADH and NAD+ forms of
``tests/test_groups.py`` and a few fixed edge cases.  :func:`outcome`
reads a text with :func:`parse_smiles`, once without a group registry
and once with the packaged NADH registry, and reduces each result, or
its error, to plain JSON data.

The file also pins ``test_groups.TWO_PLACEHOLDER_RULE``, a rule holding
two context placeholders, as :func:`parse_gml_rule` expands it with the
NADH registry.

``data/smiles_corpus.json`` holds the edits with the outcomes recorded
when it was written; ``tests/test_chem_basics.py`` and
``tests/test_groups.py`` check that the readers still give them.
Rewrite the file with ``PYTHONPATH=src:tests python tests/smiles_corpus.py``
(only when an outcome is meant to change).
"""

from __future__ import annotations

import json
import sys
from importlib import resources
from pathlib import Path
from random import Random

from grw import parse_gml_rule
from grw.chem import parse_gml_groups, parse_smiles

from test_canonical import ASSORTED, BRACKET_ATOMS, NADH, NADP
from test_groups import NADH_GROUPED, NADP_GROUPED, TWO_PLACEHOLDER_RULE, rule_elements

CORPUS = Path(__file__).resolve().parent / "data" / "smiles_corpus.json"

# Edge cases worth pinning whatever the seed draws.
FIXED = ["C%12CC%12", "C%1C", "C%", "[CH4\n]", "C²", "*", "C()C", "C.1C",
         "OC=CO", "[H][H]", "[{XYZ}]C", "[{CONH2}][{XYZ}]", "[{}]C", "[C"]

# Characters an edit may insert: SMILES syntax, letters, a space, a
# newline and a digit outside ASCII.
ALPHABET = list("-=#:().%[]{}+*@0123456789") + list("CNOSPBFIclnosHrXa") + \
    [" ", "\n", "²"]

def registry():
    return parse_gml_groups((resources.files("grw") / "assets" / "nadh_groups.gml").read_text())


def bases() -> list[str]:
    out = []
    for smiles in ASSORTED + [NADH, NADP] + [row[0] for row in BRACKET_ATOMS] + \
            [NADH_GROUPED, NADP_GROUPED] + FIXED:
        if smiles not in out:
            out.append(smiles)
    return out


def mutate(text: str, rng: Random) -> list[list]:
    """Edits ``[start, end, replacement]`` for 1-3 character mutations of
    ``text``; no two edits start at the same place."""
    edits = []
    for start in rng.sample(range(len(text) + 1), min(rng.randint(1, 3), len(text) + 1)):
        op = "insert" if start == len(text) else rng.choice(("delete", "insert", "replace"))
        char = rng.choice(ALPHABET + list(text))
        if op == "delete":
            edits.append([start, start + 1, ""])
        elif op == "insert":
            edits.append([start, start, char])
        else:
            edits.append([start, start + 1, char])
    return sorted(edits)


def apply_edits(text: str, edits: list[list]) -> str:
    for start, end, replacement in sorted(edits, reverse=True):
        text = text[:start] + replacement + text[end:]
    return text


def outcome(text: str, groups=None) -> dict:
    """What :func:`parse_smiles` makes of ``text``, as JSON data."""
    try:
        mols = parse_smiles(text, groups)
    except ValueError as exc:  # SmilesError, ChemError: part of the outcome
        return {"error": type(exc).__name__, "message": str(exc),
                "position": getattr(exc, "position", None)}
    return {"molecules": [[[m.graph.label(v) for v in m.graph.nodes()],
                           [list(e) for e in m.graph.edges()],
                           sorted([v, h] for v, h in m.explicit_h.items())]
                          for m in mols]}


def outcomes(text: str, groups) -> list[dict]:
    """The outcome without a registry, then with ``groups``."""
    return [outcome(text), outcome(text, groups)]


def corpus(seed: int, per_base: int) -> dict:
    """Every base text and ``per_base`` mutations of it (twenty times as many
    for a text holding a group placeholder), with their outcomes."""
    rng = Random(seed)
    groups = registry()
    entries = []
    for base in bases():
        # Grouped texts are the only ones the two readings tell apart.
        count = per_base * 20 if "{" in base else per_base
        for edits in [[]] + [mutate(base, rng) for _ in range(count)]:
            entries.append({"base": base, "edits": edits,
                            "outcomes": outcomes(apply_edits(base, edits), groups)})
    return {"seed": seed, "rule": rule_elements(parse_gml_rule(TWO_PLACEHOLDER_RULE, groups=groups)), "entries": entries}


if __name__ == "__main__":
    seed, per_base = (int(a) for a in sys.argv[1:3]) if len(sys.argv) > 2 else (2026, 8)
    data = corpus(seed, per_base)
    lines = ",\n".join(json.dumps(entry) for entry in data["entries"])
    CORPUS.write_text(f'{{"seed": {seed}, "rule": {json.dumps(data["rule"])}, '
                      f'"entries": [\n{lines}\n]}}\n')
