"""Constraint-aware subgraph monomorphism for labeled graphs.

A match of a pattern ``P`` in a host ``G`` is an injective map on nodes
that preserves node labels and maps every pattern edge onto a host edge
with the same label (host may have extra edges; the embedding is not
induced).  A pattern may declare one wildcard label that matches any node
or edge label, and may carry additional application conditions that
restrict the host neighborhood of matched nodes.
"""

from __future__ import annotations

import operator
from array import array
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import compress
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import LabeledGraph

# Count comparisons by constraint operator; ``<`` and ``>`` are strict.
_COMPARE = {"=": operator.eq, "!": operator.ne, "<": operator.lt, ">": operator.gt}
_EQ_OPS = ("=", "!")


@dataclass(frozen=True)
class NodeLabel:
    """Restrict the host label of a matched node to (or away from) a set."""
    node: int
    op: str
    labels: frozenset[str]


@dataclass(frozen=True)
class Adjacency:
    """Count host neighbors of a matched node, filtered by labels.

    A neighbor is counted when the connecting edge's label is in
    ``edge_labels`` and the neighbor's label is in ``node_labels``; an empty
    set (or a set containing the pattern's wildcard) accepts any label.
    ``<`` and ``>`` are strict.
    """
    node: int
    op: str
    count: int
    node_labels: frozenset[str] = frozenset()
    edge_labels: frozenset[str] = frozenset()


@dataclass(frozen=True)
class NoEdge:
    """Forbid a host edge between the images of two pattern nodes."""
    source: int
    target: int


@dataclass(frozen=True)
class EdgeLabel:
    """Restrict the host label of the edge matched by a pattern edge."""
    source: int
    target: int
    op: str
    labels: frozenset[str]


@dataclass(frozen=True)
class NodeDegree:
    """Compare the full host degree of a matched node against a count."""
    node: int
    op: str
    count: int


MatchConstraint = NodeLabel | Adjacency | NoEdge | EdgeLabel | NodeDegree

# A compiled constraint, called as ``check(image, labels, nbrs)`` with the
# host's ``node_labels`` and its ``neighbors`` method.
Check = Callable[[Sequence[int], Sequence[str], Callable[[int], dict[int, str]]], bool]


def constraint_nodes(c: MatchConstraint) -> tuple[int, ...]:
    """The pattern nodes a constraint refers to."""
    if isinstance(c, (NodeLabel, Adjacency, NodeDegree)):
        return (c.node,)
    return (c.source, c.target)


def remap_constraint(c: MatchConstraint, mapping: dict[int, int]) -> MatchConstraint:
    """The constraint with every node it refers to renamed by ``mapping``."""
    if isinstance(c, (NodeLabel, Adjacency, NodeDegree)):
        return replace(c, node=mapping[c.node])
    return replace(c, source=mapping[c.source], target=mapping[c.target])


def _accepts_all(labels: frozenset[str], wildcard: str | None) -> bool:
    """Whether a constraint's label set holds the pattern's wildcard, which
    accepts every label."""
    return wildcard is not None and wildcard in labels


def _always(image, labels, nbrs) -> bool:
    return True


def _never(image, labels, nbrs) -> bool:
    return False


def _adjacency_check(c: Adjacency, wildcard: str | None) -> Check:
    p, count, cmp = c.node, c.count, _COMPARE[c.op]
    # An empty set accepts every label, as the wildcard does.
    nodes = None if not c.node_labels or _accepts_all(c.node_labels, wildcard) else c.node_labels
    edges = None if not c.edge_labels or _accepts_all(c.edge_labels, wildcard) else c.edge_labels
    if nodes is None and edges is None:
        return lambda image, labels, nbrs: cmp(len(nbrs(image[p])), count)
    # Once this many neighbours are counted, more cannot change the result.
    decided = count if c.op == "<" else count + 1
    if edges is None:
        def count_nodes(image, labels, nbrs):
            have = 0
            for u in nbrs(image[p]):
                if labels[u] in nodes:
                    have += 1
                    if have >= decided:
                        break
            return cmp(have, count)
        return count_nodes

    def count_edges(image, labels, nbrs):
        have = 0
        for u, lbl in nbrs(image[p]).items():
            if lbl in edges and (nodes is None or labels[u] in nodes):
                have += 1
                if have >= decided:
                    break
        return cmp(have, count)
    return count_edges


def _compile_constraint(c: MatchConstraint, wildcard: str | None) -> Check:
    """One predicate for ``c``, specialised on its kind, operator, label
    sets and the pattern's wildcard; every node ``c`` refers to must be
    mapped when it is called."""
    if isinstance(c, NodeLabel):
        p, accepted = c.node, c.labels
        if _accepts_all(accepted, wildcard):
            return _always if c.op == "=" else _never
        if c.op == "=":
            return lambda image, labels, nbrs: labels[image[p]] in accepted
        return lambda image, labels, nbrs: labels[image[p]] not in accepted
    if isinstance(c, Adjacency):
        return _adjacency_check(c, wildcard)
    if isinstance(c, NodeDegree):
        p, count, cmp = c.node, c.count, _COMPARE[c.op]
        return lambda image, labels, nbrs: cmp(len(nbrs(image[p])), count)
    if isinstance(c, NoEdge):
        s, t = c.source, c.target
        return lambda image, labels, nbrs: image[t] not in nbrs(image[s])
    if isinstance(c, EdgeLabel):
        s, t, accepted = c.source, c.target, c.labels
        if _accepts_all(accepted, wildcard):
            if c.op == "=":
                return lambda image, labels, nbrs: image[t] in nbrs(image[s])
            return _never
        if c.op == "=":
            return lambda image, labels, nbrs: nbrs(image[s]).get(image[t]) in accepted
        def differs(image, labels, nbrs):
            lbl = nbrs(image[s]).get(image[t])
            return lbl is not None and lbl not in accepted
        return differs
    raise TypeError(f"unknown constraint {c!r}")


class _Step(NamedTuple):
    """What the search does when it maps the ``t``-th node of the order.

    ``label`` is the pattern node's label, ``None`` where the pattern has
    its wildcard.  A root step (``anchor`` is ``None``) takes as candidates
    the host nodes with that label, or every host node for the wildcard.
    Any other step takes the host neighbours of the image of ``anchor``,
    the earliest earlier neighbour, and tests their labels.  ``degree`` is
    the pattern node's degree where a candidate can fall short of it, and
    0 where none can: a root of degree 0, or an anchored node of degree 1
    (every neighbour of the anchor's image has an edge).  ``backs`` are
    the edges to earlier nodes, the anchor's first, and ``check`` is
    ``None`` or one predicate for every constraint whose last node is
    mapped here.
    """
    node: int
    label: str | None
    degree: int
    anchor: int | None
    backs: tuple[tuple[int, str | None], ...]
    check: Check | None


def _search_order(g: LabeledGraph) -> list[int]:
    """Static assignment order: prefer nodes attached to already-ordered ones."""
    ordered: list[int] = []
    attached = [0] * g.node_count
    left = set(g.nodes())
    while left:
        best = min(left, key=lambda v: (-attached[v], -g.degree(v), v))
        ordered.append(best)
        left.remove(best)
        for u in g.neighbors(best):
            attached[u] += 1
    return ordered


def _both(first: Check, second: Check) -> Check:
    """A predicate that holds where both hold, trying ``first`` first."""
    return lambda image, labels, nbrs: first(image, labels, nbrs) and second(image, labels, nbrs)


def _compile(pattern: Pattern) -> tuple[_Step, ...]:
    """The search plan of a pattern: one step per node, in search order."""
    pg, wc = pattern.graph, pattern.wildcard
    order = _search_order(pg)
    step_of = {p: t for t, p in enumerate(order)}
    checks_at: list[list[Check]] = [[] for _ in order]
    for c in pattern.constraints:
        last = max(step_of[v] for v in constraint_nodes(c))
        checks_at[last].append(_compile_constraint(c, wc))
    steps = []
    for t, p in enumerate(order):
        backs = sorted(((q, None if lbl == wc else lbl)
                        for q, lbl in pg.neighbors(p).items() if step_of[q] < t),
                       key=lambda e: step_of[e[0]])
        label, degree = pg.label(p), pg.degree(p)
        anchor = backs[0][0] if backs else None
        least = 0 if anchor is None else 1  # the degree every candidate has
        steps.append(_Step(p, None if label == wc else label,
                           degree if degree > least else 0,
                           anchor, tuple(backs),
                           reduce(_both, checks_at[t]) if checks_at[t] else None))
    return tuple(steps)


@dataclass(frozen=True)
class Pattern:
    """A pattern graph plus optional wildcard label and constraints.

    A pattern is immutable: its constraints, given as any sequence, are
    kept as a tuple.  It is compiled once, on construction, into the search
    plan that every :func:`find_monomorphisms` call with it runs, so the
    plan cannot go stale.
    """

    graph: LabeledGraph
    constraints: tuple[MatchConstraint, ...] = ()
    wildcard: str | None = None
    _plan: tuple[_Step, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        n = self.graph.node_count
        for c in self.constraints:
            for v in constraint_nodes(c):
                if not 0 <= v < n:
                    raise ValueError(f"constraint references unknown pattern node {v}")
            if isinstance(c, (NodeLabel, EdgeLabel)) and c.op not in _EQ_OPS:
                raise ValueError(f"operator {c.op!r} is not valid for label constraints")
            if isinstance(c, (Adjacency, NodeDegree)) and c.op not in _COMPARE:
                raise ValueError(f"unknown constraint operator {c.op!r}")
            if isinstance(c, NoEdge) and c.source == c.target:
                raise ValueError("NoEdge endpoints must be distinct")
            if isinstance(c, EdgeLabel) and not self.graph.has_edge(c.source, c.target):
                raise ValueError("EdgeLabel constraint requires the pattern edge to exist")
        object.__setattr__(self, "_plan", _compile(self))


def check_constraints(pattern: Pattern, host: LabeledGraph,
                      image: Sequence[int]) -> bool:
    """Evaluate all constraints of a completely mapped pattern.

    The predicates are the ones the pattern compiled once, when it was
    built, and :func:`find_monomorphisms` evaluates during its search, so
    both agree on every constraint."""
    labels, nbrs = host.node_labels, host.neighbors
    return all(step.check(image, labels, nbrs)
               for step in pattern._plan if step.check is not None)


def is_monomorphism(pattern: Pattern, host: LabeledGraph, image: Sequence[int]) -> bool:
    """Whether the injective ``image`` maps the pattern's node labels and
    labelled edges onto ``host``, the pattern's wildcard matching any label.
    Constraints are not evaluated (see :func:`check_constraints`)."""
    pg, wc = pattern.graph, pattern.wildcard
    if any(lbl != wc and host.label(image[p]) != lbl for p, lbl in enumerate(pg.node_labels)):
        return False
    for u, v, lbl in pg.edges():
        hl = host.edge_label(image[u], image[v])
        if hl is None or (lbl != wc and hl != lbl):
            return False
    return True


def find_monomorphisms(pattern: Pattern | LabeledGraph,
                       host: LabeledGraph) -> list[tuple[int, ...]]:
    """All constraint-satisfying monomorphisms of ``pattern`` into ``host``.

    Each match is a tuple ``m`` with ``m[i]`` the host node for pattern
    node ``i``.  The list is sorted lexicographically by that tuple.  Two
    runs on identical inputs return identical lists.  The search runs the
    plan the immutable :class:`Pattern` compiled once, when it was built,
    so a pattern reused across hosts is not compiled again; a bare graph
    is compiled on each call.  The plan fixes only the order in which
    nodes are tried, so the result is the same sorted list whatever it is.
    A root step, one with no mapped neighbour, tries only the host nodes
    that carry its label (all of them for the wildcard), and each step
    runs one predicate for the constraints it completes, or none.
    The search backtracks on an explicit stack, one iterator of untried
    host candidates per pattern node, so the pattern's size is not bounded
    by the interpreter's recursion limit.  It enumerates every match;
    to decide whether two graphs are isomorphic use :func:`are_isomorphic`.
    """
    if isinstance(pattern, LabeledGraph):
        pattern = Pattern(pattern)
    results: list[tuple[int, ...]] = []
    _search(pattern._plan, host, results)
    results.sort()
    return results


def _count_monomorphisms(pattern: Pattern, host: LabeledGraph) -> int:
    """``len(find_monomorphisms(pattern, host))``, from the same search,
    without building or sorting the matches."""
    return _search(pattern._plan, host, None)


def _search(steps: tuple[_Step, ...], host: LabeledGraph,
            results: list[tuple[int, ...]] | None) -> int:
    """Run a plan on ``host``; count the matches, and append each to
    ``results`` unless it is ``None``."""
    k, n = len(steps), host.node_count
    if k > n:
        return 0
    if k == 0:
        if results is not None:
            results.append(())
        return 1

    labels, nbrs = host.node_labels, host.neighbors
    image = [-1] * k
    used = [False] * n
    found = 0
    # untried[t]: step t's candidates not yet tried, None before it starts.
    # Steps below t are mapped; step t only when the search comes back to
    # it, which the last step never does: it runs through its candidates
    # in one pass.
    untried: list[Iterator[int] | None] = [None] * k
    t = 0
    while t >= 0:
        p, plbl, pdeg, anchor, backs, check = steps[t]
        todo = untried[t]
        if todo is None:
            if anchor is not None:
                todo = iter(nbrs(image[anchor]))
            elif plbl is None:
                todo = iter(range(n))
            else:
                todo = compress(range(n), map(plbl.__eq__, labels))
            untried[t] = todo
        else:
            used[image[p]] = False
        if anchor is None:
            plbl = None  # the root's candidates all carry its label
        last = t == k - 1
        for h in todo:
            if used[h] or (plbl is not None and labels[h] != plbl) or \
                    (pdeg and len(nbrs(h)) < pdeg):
                continue
            image[p] = h
            for q, lbl in backs:
                hl = nbrs(image[q]).get(h)
                if hl is None or (lbl is not None and hl != lbl):
                    break
            else:
                if check is None or check(image, labels, nbrs):
                    if not last:
                        break
                    # A complete match; the last step goes on to its next candidate.
                    found += 1
                    if results is not None:
                        results.append(tuple(image))
        else:
            untried[t] = None
            t -= 1
            continue
        used[h] = True
        t += 1
    return found


# -- canonical search -------------------------------------------------------

def _refine(nbrs: list[list[tuple[int, int]]], colors: list[int],
            cells: dict[int, list[int]], touched: Iterable[int]) -> None:
    """Refine an ordered partition in place, in synchronous rounds.

    ``colors[v]`` is the position of the first vertex of ``v``'s cell in
    the ordering and ``cells`` maps that position to the cell's members in
    ascending order.  ``nbrs[v]`` lists ``(u, code * n)`` per neighbour,
    so ``colors[u] + code * n`` orders like the pair ``(code, colors[u])``.
    Each round splits every cell by the sorted tuple of its members'
    neighbour pairs, the parts ordered by that tuple, until a round splits
    nothing.  Only cells with a neighbour in ``touched`` (in a later
    round: one whose colour changed; the first part of a split keeps its
    start) can split, so only those are examined.
    """
    while True:
        candidates = {colors[u] for v in touched for u, _ in nbrs[v]}
        splits = []
        for start in candidates:
            members = cells[start]
            if len(members) == 1:
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for v in members:
                nv = nbrs[v]
                sig = ((colors[nv[0][0]] + nv[0][1],) if len(nv) == 1
                       else tuple(sorted([colors[u] + off for u, off in nv])))
                part = parts.get(sig)
                if part is None:
                    parts[sig] = [v]
                else:
                    part.append(v)
            if len(parts) > 1:
                splits.append((start, parts))
        if not splits:
            return
        touched = []
        for start, parts in splits:
            for k, sig in enumerate(sorted(parts)):
                part = cells[start] = parts[sig]
                for v in part:
                    colors[v] = start
                start += len(part)
                if k:
                    touched += part


def _refined(rows: Sequence[Mapping[int, Hashable]], codes: Mapping[Hashable, int],
             colors: Sequence) -> tuple[list[list[tuple[int, int]]], list[int], dict[int, list[int]]]:
    """The pairs ``(u, codes[label] * n)`` per neighbour for :func:`_refine`,
    built from the label rows of :func:`canonical_form`, and the refined
    initial partition: vertices ordered by colour, equal colours in one cell."""
    n = len(rows)
    nbrs = [[(u, codes[lbl] * n) for u, lbl in row.items()] for row in rows]
    order = sorted(range(n), key=colors.__getitem__)
    pos = [0] * n
    cells: dict[int, list[int]] = {}
    start = 0
    for i, v in enumerate(order):
        if i and colors[v] != colors[order[i - 1]]:
            start = i
        pos[v] = start
        cells.setdefault(start, []).append(v)
    _refine(nbrs, pos, cells, range(n))
    return nbrs, pos, cells


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


class _Node:
    """A non-leaf node of the search tree and its progress through the
    members of its target cell."""

    __slots__ = ("path", "colors", "cells", "target", "next", "explored", "orbit", "used")

    def __init__(self, path: tuple[int, ...], colors: list[int],
                 cells: dict[int, list[int]], target: int):
        self.path, self.colors, self.cells, self.target = path, colors, cells, target
        self.next = 0
        self.explored: list[int] = []
        self.orbit: list[int] | None = None  # union-find parents
        self.used = 0  # automorphisms merged into ``orbit``

    def in_explored_orbit(self, v: int, twin: list[int], autos: list[list[int]]) -> bool:
        """Whether an automorphism fixing the path maps an explored member
        to ``v``: the transposition of ``v`` and an explored twin, or one
        generated by the automorphisms found at the leaves."""
        if any(twin[w] == twin[v] for w in self.explored):
            return True
        if not autos or not self.explored:
            return False
        if self.orbit is None:
            self.orbit = list(range(len(self.colors)))
        parent = self.orbit
        for gamma in autos[self.used:]:
            if all(gamma[x] == x for x in self.path):
                for x, y in enumerate(gamma):
                    a, b = _root(parent, x), _root(parent, y)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
        self.used = len(autos)
        root = _root(parent, v)
        return any(_root(parent, w) == root for w in self.explored)


def _twins(nbrs: list[list[tuple[int, int]]]) -> list[int]:
    """A twin id per vertex: the neighbour of a vertex of degree one, -1
    for an isolated vertex and ``n + v`` for any other ``v``.

    The search compares ids only within a cell of a refinement of the
    initial partition.  Vertices of one such cell have the same initial
    colour and degree, and two of degree one with the same neighbour are
    joined to it by the same code, so equal ids there mean twins."""
    n = len(nbrs)
    return [a[0][0] if len(a) == 1 else n + v if a else -1 for v, a in enumerate(nbrs)]


def _certificate(nbrs: list[list[tuple[int, int]]], rank: list[int], width: int) -> bytes:
    """The edges of the graph relabelled by ``rank``, packed exactly: one
    integer per edge, ordered like ``(rank_a, rank_b, code)`` with
    ``rank_a < rank_b`` (``width`` exceeds every code, and ``off // n`` in
    the pairs of :func:`_refined` is the code), sorted."""
    n = len(nbrs)
    return array("q", sorted((rank[v] * n + rank[u]) * width + off // n
                             for v, a in enumerate(nbrs) for u, off in a
                             if rank[v] < rank[u])).tobytes()


def canonical_form(rows: Sequence[Mapping[int, Hashable]], codes: Mapping[Hashable, int],
                   colors: Sequence, serialize: Callable[[list[int]], str]) -> str:
    """The smallest ``serialize(rank)`` over the leaves of the search tree.

    ``rows[v]`` maps each neighbour ``u`` of ``v`` to the label of their
    edge, and ``codes`` maps each label to a non-negative integer that
    gives the order of the labels; ``colors`` is the initial colouring,
    read only by its order and equality.  A node of the tree refines
    its partition; if a cell has more than one member, the first such cell
    (by colour) is split by individualizing each member in turn.  A leaf
    is a discrete partition, passed on as ``rank[v]`` in ``0..n-1``.

    ``serialize(rank)`` may depend only on the graph relabelled by
    ``rank``: the initial colour and the edge labels at each rank.  The
    search compares leaves by a certificate of its own, the relabelled
    edges with their codes (every leaf ranks vertices by initial colour
    first, so the colour at each rank is the same at every leaf), and
    serializes only the first leaf and each leaf with a new certificate.
    From the second leaf on, a leaf whose certificate was seen before
    gives an automorphism.  The search then returns to the node where the
    two leaves' paths part, and at each node skips members of the target
    cell in the orbit of a member already explored, under the
    automorphisms found so far that fix the node's path.

    Twins are found once, before the search: two vertices of degree at
    most one with the same initial colour and the same ``(neighbour,
    code)`` entry, or none, such as the hydrogens on one atom.  Swapping
    two twins is an automorphism of the coloured graph, and it fixes
    every path that contains neither.  So a node skips a member of its
    target cell that is a twin of a member it already explored: the swap
    maps one subtree onto the other, leaf for leaf, with equal
    serializations.  And a target cell that holds one class of twins is
    split into singletons in member order at once, without refinement or
    a node of its own: once one twin is individualized the partition is
    still equitable, so refinement would split nothing, and the skip
    would leave each of those nodes with its first member only.

    Only subtrees whose leaves equal explored ones are skipped, so the
    result is the minimum over all leaves (McKay and Piperno 2014).
    """
    n = len(rows)
    nbrs, root_colors, root_cells = _refined(rows, codes, colors)
    twin = _twins(nbrs) if len(root_cells) < n else []  # read only in cells of 2+
    best = ""
    width = 1 + max(codes.values(), default=0)
    first: tuple[tuple[int, ...], list[int]] | None = None
    seen: dict[bytes, tuple[tuple[int, ...], list[int]]] = {}
    autos: list[list[int]] = []
    stack: list[_Node] = []

    def visit(path: tuple[int, ...], colors: list[int], cells: dict[int, list[int]]) -> None:
        """Split cells of twins at once, then push a non-leaf node, or
        score a leaf and return to where an equivalent leaf's path parts
        from this one."""
        nonlocal best, first
        while len(cells) < n:
            target = min(s for s, c in cells.items() if len(c) > 1)
            members = cells[target]
            if any(twin[w] != twin[members[0]] for w in members):
                stack.append(_Node(path, colors, cells, target))
                return
            for rank, w in enumerate(members, target):
                cells[rank] = [w]
                colors[w] = rank
            path += tuple(members)
        if first is None:
            first = (path, colors)
            best = serialize(colors)
            return
        if not seen:
            seen[_certificate(nbrs, first[1], width)] = first
        cert = _certificate(nbrs, colors, width)
        prior = seen.get(cert)
        if prior is None:
            seen[cert] = (path, colors)
            best = min(best, serialize(colors))
            return
        prior_path, prior_colors = prior
        vertex_at = sorted(range(n), key=colors.__getitem__)
        autos.append([vertex_at[r] for r in prior_colors])
        depth = 0
        while path[depth] == prior_path[depth]:
            depth += 1
        while len(stack[-1].path) > depth:
            stack.pop()

    visit((), root_colors, root_cells)
    while stack:
        node = stack[-1]
        members = node.cells[node.target]
        while node.next < len(members):
            v = members[node.next]
            node.next += 1
            if not node.in_explored_orbit(v, twin, autos):
                break
        else:
            stack.pop()
            continue
        node.explored.append(v)
        child_colors = list(node.colors)
        child_cells = dict(node.cells)
        rest = [w for w in members if w != v]
        child_cells[node.target] = [v]
        child_cells[node.target + 1] = rest
        for w in rest:
            child_colors[w] = node.target + 1
        _refine(nbrs, child_colors, child_cells, members)
        visit(node.path + (v,), child_colors, child_cells)
    return best


def _serialize_by_rank(labels: list[str], edges: list[tuple[int, int, str]],
                       rank: list[int]) -> str:
    by_rank = sorted(range(len(labels)), key=rank.__getitem__)
    ltxt = ",".join(labels[v] for v in by_rank)
    ranked = sorted((rank[u], rank[v], lbl) if rank[u] < rank[v] else (rank[v], rank[u], lbl)
                    for u, v, lbl in edges)
    etxt = ";".join(f"{a}-{b}:{lbl}" for a, b, lbl in ranked)
    return f"{len(labels)}|{ltxt}|{etxt}"


# Separators of the canonical key, escaped inside labels so that the key
# reads back as one graph only.
_NODE_ESCAPES = str.maketrans({"\\": "\\\\", ",": "\\,", "|": "\\|"})
_EDGE_ESCAPES = str.maketrans({"\\": "\\\\", ";": "\\;"})


def canonical_key(g: LabeledGraph) -> str:
    """A string identical for isomorphic graphs and different otherwise.

    The smallest serialization over the leaves of :func:`canonical_form`,
    starting from the node labels and coding edge labels by their sorted
    order.  The key reads ``n|labels|edges``: the node labels in rank
    order joined by ``,``, then ``a-b:label`` per edge (ranks ``a < b``)
    in ascending order joined by ``;``.  Inside node labels ``\\``, ``,``
    and ``|`` are escaped with a backslash, inside edge labels ``\\`` and
    ``;``, so no two graphs share a key; labels without those characters
    appear as they are.  Automorphisms found at the leaves prune the
    search, so symmetric graphs such as explicit-hydrogen neopentane take
    a handful of leaves instead of one per symmetry.
    """
    if g.node_count == 0:
        return "0||"
    rows = [g.neighbors(v) for v in g.nodes()]
    codes = {lbl: i for i, lbl in enumerate(sorted({e for row in rows for e in row.values()}))}
    labels = [lbl.translate(_NODE_ESCAPES) for lbl in g.node_labels]
    edges = [(u, v, lbl.translate(_EDGE_ESCAPES)) for u, v, lbl in g.edges()]
    return canonical_form(rows, codes, g.node_labels,
                          lambda rank: _serialize_by_rank(labels, edges, rank))


def are_isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Whether two labeled graphs are isomorphic: equal graphs (labels and
    edges) are, and other graphs of equal node and edge counts are
    compared by :func:`canonical_key`."""
    if g1 == g2:
        return True
    if g1.node_count != g2.node_count or g1.edge_count != g2.edge_count:
        return False
    return canonical_key(g1) == canonical_key(g2)
