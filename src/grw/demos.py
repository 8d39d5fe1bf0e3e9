"""Rewrite-system demonstrations: Game of Life, Sudoku, Y-Δ helpers.

Each demo drives the generic matching/rewriting machinery rather than a
special-cased solver: Life is synchronous relabeling under adjacency
constraints, Sudoku is DFS over single-node assignment rules, and the
Y-Δ helpers build state graphs for the transformation rules.
"""

from __future__ import annotations

from typing import Iterator

from .core import LabeledGraph
from .match import Adjacency, find_monomorphisms
from .rules import RuleGraph, RuleNode, apply as apply_rule


# -- Game of Life ------------------------------------------------------------

ALIVE, DEAD = "1", "0"


def grid_graph(width: int, height: int, alive: set[tuple[int, int]] = frozenset(),
               torus: bool = False) -> LabeledGraph:
    """Moore-neighborhood grid; node (row, col) has index row*width+col."""
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    labels = [ALIVE if (r, c) in alive else DEAD
              for r in range(height) for c in range(width)]
    edges = set()
    for r in range(height):
        for c in range(width):
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if torus:
                        rr, cc = rr % height, cc % width
                    elif not (0 <= rr < height and 0 <= cc < width):
                        continue
                    a, b = r * width + c, rr * width + cc
                    if a != b:
                        edges.add((min(a, b), max(a, b)))
    return LabeledGraph.from_parts(labels, [(a, b, "-") for a, b in sorted(edges)])


def synchronous_relabel(g: LabeledGraph, rules: list[RuleGraph]) -> LabeledGraph:
    """Apply single-node relabel rules simultaneously: all matches are
    collected against the frozen graph, then relabeled in one step."""
    changes: dict[int, str] = {}
    for rule in rules:
        pattern, _ = rule.left_pattern()
        if pattern.graph.node_count != 1:
            raise ValueError(f"rule {rule.rule_id!r} is not a single-node rule")
        node = next(n for n in rule.nodes if n.left is not None)
        if node.right is None:
            raise ValueError(f"rule {rule.rule_id!r} deletes nodes")
        for match in find_monomorphisms(pattern, g):
            prior = changes.get(match[0])
            if prior is not None and prior != node.right:
                raise ValueError(
                    f"conflicting relabels on node {match[0]}: "
                    f"{prior!r} vs {node.right!r}")
            changes[match[0]] = node.right
    return g.with_labels(changes) if changes else g


def life_step(g: LabeledGraph, rules: list[RuleGraph]) -> LabeledGraph:
    """One synchronous Game of Life generation under birth/death rules."""
    return synchronous_relabel(g, rules)


def alive_cells(g: LabeledGraph, width: int) -> set[tuple[int, int]]:
    return {divmod(v, width) for v in g.nodes() if g.label(v) == ALIVE}


def render_grid(g: LabeledGraph, width: int, height: int) -> str:
    rows = []
    for r in range(height):
        rows.append("".join("#" if g.label(r * width + c) == ALIVE else "."
                            for c in range(width)))
    return "\n".join(rows)


# -- Sudoku ------------------------------------------------------------------

DIGITS = "123456789"
BLANK = "_"


def sudoku_graph(puzzle: str) -> LabeledGraph:
    """Build the 81-node dependency graph from an 81-character puzzle
    string (row major; '0', '.', or '_' mark blanks)."""
    cells = [ch for ch in puzzle if not ch.isspace()]
    if len(cells) != 81:
        raise ValueError(f"puzzle must have 81 cells, found {len(cells)}")
    labels = []
    for ch in cells:
        if ch in DIGITS:
            labels.append(ch)
        elif ch in "0._":
            labels.append(BLANK)
        else:
            raise ValueError(f"invalid puzzle character {ch!r}")
    edges = set()
    for a in range(81):
        ra, ca = divmod(a, 9)
        for b in range(a + 1, 81):
            rb, cb = divmod(b, 9)
            if ra == rb or ca == cb or (ra // 3 == rb // 3 and ca // 3 == cb // 3):
                edges.add((a, b))
    return LabeledGraph.from_parts(labels, [(a, b, "-") for a, b in sorted(edges)])


def sudoku_rules() -> list[RuleGraph]:
    """Nine assignment rules: a blank cell takes digit d when no peer
    already holds d."""
    rules = []
    for d in DIGITS:
        rules.append(RuleGraph(
            rule_id=f"assign {d}",
            nodes=(RuleNode(1, left=BLANK, right=d),),
            edges=(),
            constraints=(Adjacency(node=1, op="=", count=0,
                                   node_labels=frozenset({d})),),
        ))
    return rules


def solve_sudoku(g: LabeledGraph) -> LabeledGraph | None:
    """Depth-first search over assignment-rule applications, branching on
    the cell with the fewest applicable digits."""
    rules = sudoku_rules()
    patterns = [(r, r.left_pattern()[0]) for r in rules]
    stack: list[tuple[LabeledGraph, int, Iterator[RuleGraph]]] = []
    state = g
    while True:
        blanks = [v for v in state.nodes() if state.label(v) == BLANK]
        if not blanks:
            return state
        candidates: dict[int, list[RuleGraph]] = {v: [] for v in blanks}
        for rule, pattern in patterns:
            for match in find_monomorphisms(pattern, state):
                candidates[match[0]].append(rule)
        cell = min(blanks, key=lambda v: (len(candidates[v]), v))
        stack.append((state, cell, iter(candidates[cell])))
        # Frames are (state, cell, untried rules); resume the deepest one left.
        while stack and (rule := next(stack[-1][2], None)) is None:
            stack.pop()
        if not stack:
            return None
        parent, cell, _ = stack[-1]
        state = apply_rule(rule, parent, (cell,)).graph


def render_sudoku(g: LabeledGraph) -> str:
    rows = []
    for r in range(9):
        rows.append("".join(g.label(r * 9 + c) for c in range(9)))
    return "\n".join(rows)


# -- Y-Δ helpers ---------------------------------------------------------------

def claw_graph(label: str = "*") -> LabeledGraph:
    """A center connected to three leaves (the Y / star / claw)."""
    return LabeledGraph.from_parts([label] * 4,
                                   [(0, 1, label), (0, 2, label), (0, 3, label)])


def triangle_graph(label: str = "*") -> LabeledGraph:
    return LabeledGraph.from_parts([label] * 3,
                                   [(0, 1, label), (0, 2, label), (1, 2, label)])
