"""Graph rewrite rules with Double-Push-Out application semantics.

A rule is stored as a single *rule graph*: every node and edge carries an
optional left label and an optional right label.  Elements with only a
left label are deleted, elements with only a right label are created, and
elements whose labels differ between the sides are relabeled.  The left
projection of the rule graph is the pattern that is matched into host
graphs; matching conditions (wildcards and constraints) live on that side.
"""

from __future__ import annotations

import logging
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from .core import (GmlError, LabeledGraph, TokenStream, _edited, _fingerprint,
                   _normalize, _parse_element)
from .match import (Adjacency, MatchConstraint, NodeLabel, NoEdge, Pattern,
                    canonical_key, constraint_nodes, find_monomorphisms,
                    is_monomorphism, remap_constraint)

log = logging.getLogger(__name__)


class RuleError(ValueError):
    """Raised for structurally invalid rules."""


class ApplicationError(RuntimeError):
    """Raised when a rewrite cannot be performed on a host graph."""


@dataclass(frozen=True)
class RuleNode:
    id: int
    left: str | None = None
    right: str | None = None


@dataclass(frozen=True)
class RuleEdge:
    source: int
    target: int
    left: str | None = None
    right: str | None = None


class RuleGraph:
    """A validated rewrite rule over external node ids; its left pattern is built with it."""

    def __init__(self, rule_id: str, nodes: Sequence[RuleNode],
                 edges: Sequence[RuleEdge],
                 constraints: Sequence[MatchConstraint] = (),
                 wildcard: str | None = None):
        if not rule_id:
            raise RuleError("rule must have a non-empty ruleID")
        self.rule_id = rule_id
        self.wildcard = wildcard
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.constraints = tuple(constraints)
        self._validate()
        left_nodes = [nd for nd in self.nodes if nd.left is not None]
        ext_to_pid = {nd.id: i for i, nd in enumerate(left_nodes)}
        labels = [nd.left for nd in left_nodes]
        left_edges = [(ext_to_pid[ed.source], ext_to_pid[ed.target], ed.left)
                      for ed in self.edges if ed.left is not None]
        graph = LabeledGraph.from_parts(labels, left_edges,
                                        ext_ids=[nd.id for nd in left_nodes])
        remapped = [remap_constraint(c, ext_to_pid) for c in self.constraints]
        self._left_pattern = (Pattern(graph, remapped, self.wildcard), ext_to_pid)

    def _validate(self) -> None:
        by_id: dict[int, RuleNode] = {}
        for nd in self.nodes:
            if nd.left is None and nd.right is None:
                raise RuleError(f"node {nd.id} has neither a left nor a right label")
            if nd.left == "" or nd.right == "":
                raise RuleError(f"node {nd.id} has an empty label")
            if nd.id in by_id:
                raise RuleError(f"duplicate node id {nd.id}")
            by_id[nd.id] = nd
        seen_edges: set[tuple[int, int]] = set()
        for ed in self.edges:
            if ed.left is None and ed.right is None:
                raise RuleError(f"edge ({ed.source}, {ed.target}) has no label on either side")
            if ed.left == "" or ed.right == "":
                raise RuleError(f"edge ({ed.source}, {ed.target}) has an empty label")
            for end in (ed.source, ed.target):
                if end not in by_id:
                    raise RuleError(f"edge ({ed.source}, {ed.target}) references undeclared node {end}")
            if ed.source == ed.target:
                raise RuleError(f"self-loop on node {ed.source}")
            key = _normalize(ed.source, ed.target)
            if key in seen_edges:
                raise RuleError(f"duplicate edge ({ed.source}, {ed.target})")
            seen_edges.add(key)
            for side in ("left", "right"):
                if getattr(ed, side) is not None:
                    for end in (ed.source, ed.target):
                        if getattr(by_id[end], side) is None:
                            raise RuleError(
                                f"edge ({ed.source}, {ed.target}) is declared on the {side} side "
                                f"but node {end} is absent there")
        left_ids = {nd.id for nd in self.nodes if nd.left is not None}
        for c in self.constraints:
            for r in constraint_nodes(c):
                if r not in left_ids:
                    raise RuleError(f"constraint references node {r}, which is not matched "
                                    f"on the left side")

    # -- projections -------------------------------------------------------

    def left_pattern(self) -> tuple[Pattern, dict[int, int]]:
        """The matching pattern and the external-id -> pattern-id map."""
        return self._left_pattern

    def __repr__(self) -> str:
        return f"RuleGraph({self.rule_id!r}, {len(self.nodes)} nodes, {len(self.edges)} edges)"


def reverse_rule(rule: RuleGraph, rule_id: str | None = None) -> RuleGraph:
    """Swap the two sides of a rule and drop all matching constraints."""
    if rule_id is None:
        rule_id = f"{rule.rule_id} (reverse)"
    nodes = [RuleNode(nd.id, nd.right, nd.left) for nd in rule.nodes]
    edges = [RuleEdge(ed.source, ed.target, ed.right, ed.left) for ed in rule.edges]
    return RuleGraph(rule_id, nodes, edges, (), rule.wildcard)


# -- GML rule format --------------------------------------------------------

def _parse_label_list(ts: TokenStream) -> frozenset[str]:
    ts.expect("[")
    labels = []
    while True:
        tok = ts.next()
        if tok.kind == "]":
            break
        if tok.kind != "word" or tok.value != "label":
            raise GmlError(f"expected 'label' or ']', found {tok.value!r}", tok.line, tok.column)
        labels.append(ts.expect("str", "label string").value)
    return frozenset(labels)


def _parse_constraint(kind: str, ts: TokenStream) -> MatchConstraint:
    tok = ts.expect("[")
    fields: dict[str, object] = {}
    while True:
        tok = ts.next()
        if tok.kind == "]":
            break
        if tok.kind != "word":
            raise GmlError(f"expected a constraint key, found {tok.value!r}", tok.line, tok.column)
        key = tok.value
        if key in ("id", "count", "source", "target"):
            fields[key] = int(ts.expect("int", f"{key} value").value)
        elif key == "op":
            fields[key] = ts.expect("op", "an operator (= ! < >)").value
        elif key in ("nodeLabels", "edgeLabels"):
            fields[key] = _parse_label_list(ts)
        else:
            raise GmlError(f"unknown constraint key {key!r}", tok.line, tok.column)

    def need(name: str) -> object:
        if name not in fields:
            raise GmlError(f"{kind} is missing its '{name}' entry", tok.line, tok.column)
        return fields[name]

    if kind == "constrainNode":
        return NodeLabel(node=need("id"), op=need("op"),
                         labels=need("nodeLabels"))
    if kind == "constrainAdj":
        return Adjacency(node=need("id"), op=need("op"), count=need("count"),
                         node_labels=fields.get("nodeLabels", frozenset()),
                         edge_labels=fields.get("edgeLabels", frozenset()))
    return NoEdge(source=need("source"), target=need("target"))


_CONSTRAINT_KINDS = ("constrainNode", "constrainAdj", "constrainNoEdge")


def parse_gml_rule(text: str, groups=None) -> RuleGraph:
    """Parse a ``rule [ ... ]`` block.

    The ``context`` section declares elements present on both sides,
    ``left``/``right`` declare one-sided elements; a node or edge may appear
    in both one-sided sections to express a relabel.  Constraints are
    accepted inside ``left`` and ``context``.  When a :class:`GroupRegistry`
    is passed, node labels of the form ``[{NAME}]`` are expanded in place.
    """
    ts = TokenStream.from_text(text)
    ts.expect_word("rule")
    ts.expect("[")
    ts.expect_word("ruleID")
    rule_id = ts.expect("str", "rule id string").value

    # Each table maps a node id or an edge's end pair to its labels per
    # side, in declaration order.
    node_sides: dict[int, dict[str, str]] = {}
    edge_sides: dict[tuple[int, int], dict[str, str]] = {}
    constraints: list[MatchConstraint] = []
    wildcard: str | None = None
    seen_sections: set[str] = set()

    def add(table: dict, key, what: str, side: str, label: str, tok) -> None:
        entry = table.setdefault(key, {})
        for s in ("left", "right") if side == "context" else (side,):
            if s in entry:
                raise GmlError(f"{what} already has a {s} label", tok.line, tok.column)
            entry[s] = label

    while True:
        tok = ts.next()
        if tok.kind == "]":
            break
        if tok.kind != "word":
            raise GmlError(f"expected a rule section, found {tok.value!r}", tok.line, tok.column)
        if tok.value == "wildcard":
            if wildcard is not None:
                raise GmlError("duplicate wildcard declaration", tok.line, tok.column)
            wildcard = ts.expect("str", "wildcard label").value
            continue
        if tok.value not in ("context", "left", "right"):
            raise GmlError(f"unknown rule section {tok.value!r}", tok.line, tok.column)
        section = tok.value
        if section in seen_sections:
            raise GmlError(f"duplicate section '{section}'", tok.line, tok.column)
        seen_sections.add(section)
        ts.expect("[")
        while True:
            tok = ts.next()
            if tok.kind == "]":
                break
            if tok.kind != "word":
                raise GmlError(f"expected a declaration, found {tok.value!r}",
                               tok.line, tok.column)
            if tok.value == "node":
                (nid,), lbl = _parse_element(ts, tok)
                if lbl == "":
                    raise GmlError(f"node {nid} has an empty label", tok.line, tok.column)
                add(node_sides, nid, f"node {nid}", section, lbl, tok)
            elif tok.value == "edge":
                (src, tgt), lbl = _parse_element(ts, tok)
                if lbl == "":
                    raise GmlError(f"edge ({src}, {tgt}) has an empty label",
                                   tok.line, tok.column)
                if src == tgt:
                    raise GmlError(f"self-loop on node {src}", tok.line, tok.column)
                add(edge_sides, _normalize(src, tgt), f"edge ({src}, {tgt})", section, lbl, tok)
            elif tok.value in _CONSTRAINT_KINDS:
                if section == "right":
                    raise GmlError("constraints are not allowed in the right section",
                                   tok.line, tok.column)
                constraints.append(_parse_constraint(tok.value, ts))
            else:
                raise GmlError(f"unexpected declaration {tok.value!r}", tok.line, tok.column)
    if not ts.at_end():
        raise ts.error("trailing content after rule block")

    nodes = [RuleNode(nid, e.get("left"), e.get("right")) for nid, e in node_sides.items()]
    edges = [RuleEdge(src, tgt, e.get("left"), e.get("right"))
             for (src, tgt), e in edge_sides.items()]
    if groups is not None:
        raw_nodes, raw_edges = groups.expand_rule_elements(
            [(n.id, n.left, n.right) for n in nodes],
            [(e.source, e.target, e.left, e.right) for e in edges])
        nodes = [RuleNode(*item) for item in raw_nodes]
        edges = [RuleEdge(*item) for item in raw_edges]
    try:
        return RuleGraph(rule_id, nodes, edges, constraints, wildcard)
    except ValueError as exc:  # a RuleError, or a constraint the pattern refuses
        # The whole text is read, so this reports the end-of-text position.
        raise ts.error(str(exc)) from exc


# -- application -----------------------------------------------------------

@dataclass
class RewriteResult:
    """Outcome of one rule application.

    ``node_origin`` gives, for each node of the result graph, either the
    host node it came from or a fresh id above the host maximum for nodes
    the rule created (fresh ids are assigned in rule-declaration order).
    """
    graph: LabeledGraph
    rule: RuleGraph
    host: LabeledGraph
    match: tuple[int, ...]
    node_origin: tuple[int, ...]

    def fresh_nodes(self) -> list[int]:
        """Result node ids that were created by the rule."""
        return [v for v, o in enumerate(self.node_origin) if o >= self.host.node_count]


def apply(rule: RuleGraph, host: LabeledGraph, match: Sequence[int]) -> RewriteResult:
    """Apply a rule at a given match; the three DPO steps in order.

    Deletion: images of left-only nodes go away together with every host
    edge touching them, and images of left-only edges go away.  Relabeling:
    nodes and edges present on both sides with differing labels take the
    right label.  Addition: right-only nodes enter with fresh ids, then
    right-only edges; adding an edge that is already present raises
    :class:`ApplicationError`.

    The match is checked first: it must have one entry per left-pattern
    node, each a host node id (``0 <= v < host.node_count``), with no host
    node used twice, and it must map the left pattern's node labels and
    edges onto the host (:func:`grw.match.is_monomorphism`; constraints
    are not evaluated).  Otherwise :class:`ApplicationError` is raised.
    """
    pattern, ext_to_pid = rule.left_pattern()
    if len(match) != pattern.graph.node_count:
        raise ApplicationError("match length does not fit the rule's left pattern")
    n = host.node_count
    for v in match:
        if not 0 <= v < n:
            raise ApplicationError(f"match refers to host node {v}, which does not exist")
    if len(set(match)) != len(match):
        raise ApplicationError("match is not injective: a host node is used twice")
    if not is_monomorphism(pattern, host, match):
        raise ApplicationError("match does not map the rule's left pattern into the host")
    img = {ext: match[pid] for ext, pid in ext_to_pid.items()}

    labels = list(host.node_labels)
    deleted: set[int] = set()
    for nd in rule.nodes:
        if nd.left is not None and nd.right is None:
            deleted.add(img[nd.id])
        elif nd.left is not None and nd.right != nd.left:
            labels[img[nd.id]] = nd.right
    keep = [v for v in host.nodes() if v not in deleted]
    if deleted:
        labels = [labels[v] for v in keep]
    fresh = [nd for nd in rule.nodes if nd.left is None]
    for j, nd in enumerate(fresh):
        img[nd.id] = n + j  # fresh id above the host maximum
        labels.append(nd.right)

    drop: list[tuple[int, int]] = []
    put: list[tuple[int, int, str]] = []
    for ed in rule.edges:
        u, v = img[ed.source], img[ed.target]
        if ed.right is None:
            drop.append((u, v))
        elif ed.left is None:
            if host.has_edge(u, v):
                a, b = _normalize(u, v)
                raise ApplicationError(f"edge already exists between host nodes {a} and {b}")
            put.append((u, v, ed.right))
        elif ed.right != ed.left:
            put.append((u, v, ed.right))

    graph = _edited(host, labels, keep, drop, put)
    origin = (*keep, *range(n, n + len(fresh)))
    return RewriteResult(graph, rule, host, tuple(match), origin)


# A ``collections.abc`` alias, not a ``typing`` one: typing caches its
# aliases for the life of the interpreter, and with them ``RewriteResult``,
# which keeps every earlier copy of the package alive after a re-import.
Reporter = Callable[[RewriteResult], bool | None]


def apply_all(rule: RuleGraph, host: LabeledGraph, reporter: Reporter | None = None,
              dedup: bool = False) -> list[RewriteResult]:
    """Apply a rule at every match, in deterministic match order.

    With ``dedup``, a result whose graph has the :func:`canonical_key` of
    an earlier result's graph, i.e. is isomorphic to it, is dropped (first
    occurrence kept).  A result whose graph is identical to an earlier
    result's (equal labels, ``ext_ids`` and adjacency, as symmetric matches
    often give) is dropped before it is keyed, so the key is computed
    once per distinct graph.  A reporter receives each surviving result;
    returning ``False`` stops the enumeration early.
    Matches whose application fails (an edge collision) are skipped with
    a logged diagnostic rather than aborting the enumeration.
    """
    pattern, _ = rule.left_pattern()
    results: list[RewriteResult] = []
    fingerprints: set[tuple] = set()
    seen: set[str] = set()
    for match in find_monomorphisms(pattern, host):
        try:
            res = apply(rule, host, match)
        except ApplicationError as exc:
            log.warning("rule %s: skipping match %s (%s)",
                        rule.rule_id, match, exc)
            continue
        if dedup:
            fingerprint = _fingerprint(res.graph)
            if fingerprint in fingerprints:
                continue
            fingerprints.add(fingerprint)
            key = canonical_key(res.graph)
            if key in seen:
                continue
            seen.add(key)
        results.append(res)
        if reporter is not None and reporter(res) is False:
            break
    return results


# -- graph space exploration -------------------------------------------------

@dataclass
class ExploreResult:
    visited: dict[str, LabeledGraph]
    path: list[LabeledGraph] | None = None


def explore(starts: Sequence[LabeledGraph], rules: Sequence[RuleGraph],
            strategy: str = "bfs", depth: int = 1,
            key: Callable[[LabeledGraph], str] = None,
            goal: Callable[[LabeledGraph], bool] | None = None) -> ExploreResult:
    """Walk the space of graphs induced by a rule set.

    ``key`` maps each graph to the string under which it is remembered;
    graphs whose key was already seen are not expanded again.  Of the
    results of one rule on one graph, one identical to an earlier one
    (equal labels, ``ext_ids`` and adjacency) is skipped before it is
    keyed: it would get the same key.  So ``key`` is called once per
    start and once per distinct successor of each rule.  ``depth``
    bounds the number of rewrite steps from a start graph.  With a goal
    predicate the search stops at the first satisfying graph and reports
    the path of graphs leading to it (DFS follows rule/match order, BFS
    finds a shortest such path).
    """
    if key is None:
        raise ValueError("explore requires a key function")
    if strategy not in ("bfs", "dfs"):
        raise ValueError(f"unknown strategy {strategy!r}")

    visited: dict[str, LabeledGraph] = {}
    parent: dict[str, str | None] = {}

    def reconstruct(k: str) -> list[LabeledGraph]:
        chain = []
        cur: str | None = k
        while cur is not None:
            chain.append(visited[cur])
            cur = parent[cur]
        chain.reverse()
        return chain

    def successors(g: LabeledGraph) -> Iterator[LabeledGraph]:
        for rule in rules:
            fingerprints: set[tuple] = set()
            for res in apply_all(rule, g):
                fingerprint = _fingerprint(res.graph)
                if fingerprint not in fingerprints:
                    fingerprints.add(fingerprint)
                    yield res.graph

    # One frontier of (key, depth, successor iterator) entries; the
    # starts hang off a root entry at depth -1 that has no key.  BFS
    # draws from the oldest entry and DFS from the newest, so BFS records
    # every start before it expands one and DFS walks a start to the end
    # before it keys the next.  The explicit frontier keeps deep searches
    # clear of the interpreter's recursion limit.
    frontier: deque[tuple[str | None, int, Iterator[LabeledGraph]]] = \
        deque([(None, -1, iter(starts))])
    end = 0 if strategy == "bfs" else -1
    while frontier:
        k, d, children = frontier[end]
        for h in children:
            ck = key(h)
            if ck not in visited:
                break
        else:
            del frontier[end]
            continue
        visited[ck] = h
        parent[ck] = k
        if goal is not None and goal(h):
            return ExploreResult(visited, reconstruct(ck))
        if d + 1 < depth:
            frontier.append((ck, d + 1, successors(h)))
    return ExploreResult(visited, None)

