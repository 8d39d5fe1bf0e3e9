"""Seeded token mutations of GML texts, and what the readers make of them.

Each corpus entry names a base text (a packaged rule, the packaged group
file, or :data:`SAMPLE_GRAPH`) and lists the edits that turn it into a
mutated text: 1-3 tokens deleted, duplicated, swapped or replaced.  The
first entry of each base has no edits and pins the base's own reading.
:func:`outcome` reads a text with the reader for its base and reduces the
result, or the error, to plain JSON data.

``data/gml_corpus.json`` holds the edits with the outcomes recorded when
it was written; ``tests/test_core.py`` checks that the readers still give
them.  Rewrite the file with ``PYTHONPATH=src python tests/gml_corpus.py``
(only when an outcome is meant to change).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path
from random import Random

from grw import parse_gml_graph, parse_gml_rule
from grw.chem import parse_gml_groups
from grw.core import tokenize_gml

CORPUS = Path(__file__).resolve().parent / "data" / "gml_corpus.json"
GROUPS = "nadh_groups.gml"
GRAPH = "sample graph"

SAMPLE_GRAPH = """# glycolaldehyde with explicit hydrogens
graph [
  node [ id 0 label "C" ]
  node [ id 1 label "O" ]
  node [ id 2 label "C" ]
  node [ id 3 label "O" ]
  node [ id 4 label "H" ]
  node [ id 5 label "H" ]
  edge [ source 0 target 1 label "=" ]
  edge [ source 0 target 2 label "-" ]
  edge [ source 2 target 3 label "-" ]
  edge [ source 0 target 4 label "-" ]
  edge [ source 3 target 5 label "-" ]
]
"""

# Tokens that replace or join the base text's own: structure, keys from
# every reader, odd values, and text the tokenizer rejects.
FOREIGN = ["[", "]", '""', '"X"', "0", "1", "-1", "99", "node", "edge", "id",
           "label", "source", "target", "left", "right", "context", "graph",
           "group", "proxy", "wildcard", "constrainAdj", "=", "@", '"', "#"]


def base_names() -> list[str]:
    assets = resources.files("grw") / "assets"
    return sorted(p.name for p in assets.iterdir() if p.name.endswith(".gml")) + [GRAPH]


def base_text(name: str) -> str:
    if name == GRAPH:
        return SAMPLE_GRAPH
    return (resources.files("grw") / "assets" / name).read_text()


def token_spans(text: str) -> list[tuple[int, int, str]]:
    """``(start, end, kind)`` of each token of ``text``."""
    starts = [0]
    for line in text.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    spans = []
    for tok in tokenize_gml(text):
        start = starts[tok.line - 1] + tok.column - 1
        width = len(tok.value) + 2 if tok.kind == "str" else len(tok.value)
        spans.append((start, start + width, tok.kind))
    return spans


def _kind(word: str) -> str | None:
    try:
        (tok,) = tokenize_gml(word)
    except ValueError:  # no token, several, or a tokenizer error
        return None
    return tok.kind


def mutate(text: str, rng: Random) -> list[list]:
    """Edits ``[start, end, replacement]`` for 1-3 mutations of ``text``."""
    spans = token_spans(text)
    picks = rng.sample(range(len(spans)), 4)
    edits = []
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("delete", "duplicate", "swap", "replace") + ("same kind",) * 4)
        start, end, kind = spans[picks.pop()]
        word = text[start:end]
        if op == "delete":
            edits.append([start, end, ""])
        elif op == "duplicate":
            edits.append([start, end, f"{word} {word}"])
        elif op == "swap" and picks:
            other_start, other_end, _ = spans[picks.pop()]
            edits.append([start, end, text[other_start:other_end]])
            edits.append([other_start, other_end, word])
        elif op == "same kind":
            # Keeps the text well formed more often than not, so the
            # checks after the syntax see the mutation too.
            pool = [text[s:e] for s, e, k in spans if k == kind]
            pool += [w for w in FOREIGN if _kind(w) == kind]
            edits.append([start, end, rng.choice(pool)])
        else:
            start2, end2, _ = rng.choice(spans)
            edits.append([start, end, rng.choice(FOREIGN + [text[start2:end2]])])
        if not picks:
            break
    return sorted(edits)


def apply_edits(text: str, edits: list[list]) -> str:
    for start, end, replacement in sorted(edits, reverse=True):
        text = text[:start] + replacement + text[end:]
    return text


def _plain(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return value


def _graph(g) -> dict:
    return {"nodes": [[g.ext_ids[v], g.label(v)] for v in g.nodes()],
            "edges": [[g.ext_ids[u], g.ext_ids[v], lbl] for u, v, lbl in g.edges()]}


def outcome(name: str, text: str) -> dict:
    """What the reader for base ``name`` makes of ``text``, as JSON data."""
    try:
        if name == GRAPH:
            return {"graph": _graph(parse_gml_graph(text))}
        if name == GROUPS:
            registry = parse_gml_groups(text)
            return {"groups": [[n, registry.get(n).proxy, _graph(registry.get(n).graph)]
                               for n in registry.names()]}
        rule = parse_gml_rule(text)
    except ValueError as exc:  # GmlError, ChemError: part of the outcome
        return {"error": type(exc).__name__, "message": str(exc)}
    constraints = [[type(c).__name__] + [[f.name, _plain(getattr(c, f.name))]
                                         for f in dataclasses.fields(c)]
                   for c in rule.constraints]
    return {"rule": {"id": rule.rule_id,
                     "nodes": [[n.id, n.left, n.right] for n in rule.nodes],
                     "edges": [[e.source, e.target, e.left, e.right] for e in rule.edges],
                     "constraints": constraints, "wildcard": rule.wildcard}}


def corpus(seed: int, per_base: int) -> list[dict]:
    """Every base text and ``per_base`` mutations of it, with their outcomes."""
    rng = Random(seed)
    entries = []
    for name in base_names():
        text = base_text(name)
        for edits in [[]] + [mutate(text, rng) for _ in range(per_base)]:
            entries.append({"base": name, "edits": edits,
                            "outcome": outcome(name, apply_edits(text, edits))})
    return entries


if __name__ == "__main__":
    seed, per_base = (int(a) for a in sys.argv[1:3]) if len(sys.argv) > 2 else (2026, 24)
    lines = ",\n".join(json.dumps(entry) for entry in corpus(seed, per_base))
    CORPUS.write_text(f'{{"seed": {seed}, "entries": [\n{lines}\n]}}\n')
