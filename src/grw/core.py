"""Labeled undirected graphs and their GML serialization.

The graph model is deliberately small: simple undirected graphs (no
self-loops, no parallel edges) whose nodes and edges both carry non-empty
string labels.  Node ids are dense integers ``0..n-1`` internally; graphs
parsed from GML remember the external ids they were declared with so that
error messages and round-trips can speak the caller's language.

A graph stores each edge once per endpoint, in that node's adjacency
mapping, and only this module reads or writes that store.
:meth:`LabeledGraph.from_parts` validates parts that come from outside
(callers, SMILES and GML parsers).  Graphs derived from valid graphs
(unions, components, and edits through the private ``_edited``) copy or
renumber adjacency mappings without re-checking them.  A
:class:`GraphPool` makes graphs that live together share equal storage.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Sequence


class GmlError(ValueError):
    """Raised for malformed GML input; carries a 1-based line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def _normalize(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class LabeledGraph:
    """An immutable simple undirected graph with node and edge labels.

    Construct with :meth:`from_parts`.  Each edge is stored once per
    endpoint, in that node's adjacency mapping, and nowhere else.
    Instances must not be mutated, and neither may the mapping
    :meth:`neighbors` returns: it is the graph's own, and derived graphs
    (:meth:`with_labels`, a graph's only connected component, rule
    applications) share adjacency mappings with their source, as do all
    graphs passed through one :class:`GraphPool`.  Writing to a returned
    mapping therefore corrupts every graph that shares it.  Structural
    equality compares labels and edges, ignoring the external-id side map.
    """

    __slots__ = ("_labels", "_adj", "_ext_ids")

    def __init__(self, labels: Sequence[str], adj: tuple[dict[int, str], ...],
                 ext_ids: tuple[int, ...]):
        self._labels = tuple(labels)
        self._adj = adj
        self._ext_ids = ext_ids

    @classmethod
    def from_parts(cls, labels: Sequence[str],
                   edges: Iterable[tuple[int, int, str]],
                   ext_ids: Sequence[int] | None = None) -> "LabeledGraph":
        """Validate the parts and build the graph.

        This is the public, validating boundary: every node label must be
        a non-empty string, every edge must join two distinct known nodes
        with a non-empty string label, no node pair may carry two edges,
        and ``ext_ids`` (default ``0..n-1``) must have one entry per node.
        Any violation raises :class:`ValueError`.  Edges may be given in
        any order and orientation.
        """
        labels = tuple(labels)
        n = len(labels)
        for i, lbl in enumerate(labels):
            if not isinstance(lbl, str) or lbl == "":
                raise ValueError(f"node {i} has an empty or non-string label")
        adj: tuple[dict[int, str], ...] = tuple({} for _ in range(n))
        for u, v, lbl in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references an unknown node")
            if u == v:
                raise ValueError(f"self-loop on node {u} is not allowed")
            if not isinstance(lbl, str) or lbl == "":
                raise ValueError(f"edge ({u}, {v}) has an empty label")
            if v in adj[u]:
                raise ValueError(f"duplicate edge ({u}, {v})")
            adj[u][v] = lbl
            adj[v][u] = lbl
        ext_ids = tuple(range(n) if ext_ids is None else ext_ids)
        if len(ext_ids) != n:
            raise ValueError("ext_ids length does not match node count")
        return cls(labels, tuple(dict(sorted(nbrs.items())) for nbrs in adj), ext_ids)

    # -- basic accessors ---------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    @property
    def node_labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def ext_ids(self) -> tuple[int, ...]:
        """External (as-declared) id for each dense node id."""
        return self._ext_ids

    def nodes(self) -> range:
        return range(len(self._labels))

    def label(self, v: int) -> str:
        return self._labels[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> dict[int, str]:
        """Neighbor -> edge label, in ascending neighbor order.

        The mapping is the graph's own storage and may be shared with
        other graphs (see :class:`LabeledGraph`): treat it as read only,
        since writing to it corrupts every graph that shares it.
        """
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < len(self._adj) and v in self._adj[u]

    def edge_label(self, u: int, v: int) -> str | None:
        return self._adj[u].get(v) if 0 <= u < len(self._adj) else None

    def edges(self) -> list[tuple[int, int, str]]:
        """Edges as (u, v, label) with u < v, ascending."""
        return [(u, v, lbl) for u, nbrs in enumerate(self._adj)
                for v, lbl in nbrs.items() if v > u]

    # -- derived graphs ----------------------------------------------------

    def with_labels(self, changes: dict[int, str]) -> "LabeledGraph":
        """Copy of the graph with some node labels replaced.

        Raises :class:`ValueError` for an unknown node or an empty or
        non-string label.  The copy shares this graph's (immutable) edges.
        """
        labels = list(self._labels)
        for v, lbl in changes.items():
            if not 0 <= v < len(labels):
                raise ValueError(f"node {v} is not in the graph")
            if not isinstance(lbl, str) or lbl == "":
                raise ValueError(f"node {v} has an empty or non-string label")
            labels[v] = lbl
        return LabeledGraph(labels, self._adj, self._ext_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return self._labels == other._labels and self._adj == other._adj

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LabeledGraph(nodes={self.node_count}, edges={self.edge_count})"


class GraphPool:
    """Hash-consing table that makes equal graph parts one shared object.

    :meth:`share` returns a graph equal to its argument whose label tuple,
    ``ext_ids`` tuple and adjacency mappings are the first equal objects
    the pool was given.  Graphs that live together (a reaction network's
    molecules) then hold each distinct row and tuple once.  A row is keyed
    by its ordered items, so a shared row keeps its neighbour order.
    Shared mappings must never be written to.
    """

    __slots__ = ("_rows", "_tuples")

    def __init__(self) -> None:
        self._rows: dict[tuple[tuple[int, str], ...], dict[int, str]] = {}
        # Kept apart from the rows: an empty row and an empty tuple have
        # the same key.
        self._tuples: dict[tuple, tuple] = {}

    def share(self, g: LabeledGraph) -> LabeledGraph:
        """A graph equal to ``g``, with the same ``ext_ids`` and neighbour
        order, built from the pool's shared parts; ``g`` is left unchanged."""
        rows = self._rows
        tuples = self._tuples
        adj = tuple([rows.setdefault(tuple(row.items()), row) for row in g._adj])
        return LabeledGraph(tuples.setdefault(g._labels, g._labels), adj,
                            tuples.setdefault(g._ext_ids, g._ext_ids))


def _fingerprint(g: LabeledGraph) -> tuple:
    """A hashable value that two graphs share exactly when their labels,
    ``ext_ids`` and ordered adjacency rows are equal, rows keyed as in
    :class:`GraphPool`.  Such graphs are identical, so any function of a
    graph gives them the same value."""
    return g._labels, g._ext_ids, tuple([tuple(row.items()) for row in g._adj])


def _edited(host: LabeledGraph, labels: Sequence[str], keep: Sequence[int],
            drop: Sequence[tuple[int, int]],
            put: Sequence[tuple[int, int, str]]) -> LabeledGraph:
    """The graph ``host`` becomes under a valid edit; nothing is checked.

    The result has the host nodes in ``keep`` (ascending), then new nodes
    that ``put`` calls ``host.node_count + j``, labelled by ``labels``.
    Each ``(u, v)`` in ``drop`` must be a host edge; each ``(u, v, label)``
    in ``put`` adds or relabels an edge of kept or new nodes.  Edges of
    other nodes go with them; untouched mappings are shared with ``host``.
    """
    n = host.node_count
    adj = list(host._adj)
    adj.extend({} for _ in range(len(labels) - len(keep)))
    for w in {w for edge in (*drop, *put) for w in edge[:2]}:
        adj[w] = dict(adj[w])
    for u, v in drop:
        del adj[u][v], adj[v][u]
    unsorted = set()
    for u, v, lbl in put:
        for a, b in ((u, v), (v, u)):
            nbrs = adj[a]
            # A new neighbour above the largest one keeps the order.
            if b not in nbrs and nbrs and b < next(reversed(nbrs)):
                unsorted.add(a)
            nbrs[b] = lbl
    for v in unsorted:
        adj[v] = dict(sorted(adj[v].items()))
    if len(keep) < n:
        # Kept nodes, then new nodes: the renumbering is monotone, so
        # every mapping stays in ascending order.
        old = [*keep, *range(n, len(adj))]
        new_id = [-1] * len(adj)
        for i, v in enumerate(old):
            new_id[v] = i
        adj = [{new_id[u]: lbl for u, lbl in adj[v].items() if new_id[u] >= 0}
               for v in old]
    return LabeledGraph(labels, tuple(adj), tuple(range(len(labels))))


# -- GML ------------------------------------------------------------------

# One alternative per token kind; whitespace and comments match unnamed.
# ``bad`` takes any other character, a lone ``"`` included, so the scan
# covers the whole text.
_TOKEN_RE = re.compile(r"""
    [ \t\r]+ | \#[^\n]* | (?P<newline>\n)
  | (?P<bracket>[][]) | (?P<op>[=!<>]) | "(?P<str>[^"\n]*)"
  | (?P<int>-?[0-9]+) | (?P<word>[A-Za-z_]\w*) | (?P<bad>.)
""", re.VERBOSE | re.ASCII)


class Token(NamedTuple):
    kind: str  # 'word' | 'int' | 'str' | 'op' | '[' | ']'
    value: str
    line: int
    column: int


def tokenize_gml(text: str) -> list[Token]:
    """Split GML-style text into tokens; ``#`` starts a comment to end of line.

    One regular-expression scan.  Lines and columns are 1-based and a tab
    counts as one column.  A string runs to the next ``"`` on its line;
    without one it is an ``unterminated string`` at its opening quote.
    Any character outside the token alphabet is an ``unexpected
    character`` at its own position.
    """
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        column = m.start() - line_start + 1
        value = m.group(kind)
        if kind == "bad":
            if value == '"':
                raise GmlError("unterminated string", line, column)
            raise GmlError(f"unexpected character {value!r}", line, column)
        tokens.append(Token(value if kind == "bracket" else kind, value, line, column))
    return tokens


class TokenStream:
    """Cursor over a token list with convenience expectations."""

    def __init__(self, tokens: list[Token], text_end: tuple[int, int]):
        self._tokens = tokens
        self._pos = 0
        self._end = text_end

    @classmethod
    def from_text(cls, text: str) -> "TokenStream":
        lines = text.split("\n")
        end = (len(lines), len(lines[-1]) + 1)
        return cls(tokenize_gml(text), end)

    def peek(self) -> Token | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise GmlError("unexpected end of input", *self._end)
        self._pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.next()
        if tok.kind != kind:
            want = what or kind
            raise GmlError(f"expected {want}, found {tok.value!r}", tok.line, tok.column)
        return tok

    def expect_word(self, value: str) -> Token:
        tok = self.next()
        if tok.kind != "word" or tok.value != value:
            raise GmlError(f"expected '{value}', found {tok.value!r}", tok.line, tok.column)
        return tok

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)

    def error(self, message: str) -> GmlError:
        tok = self.peek()
        if tok is None:
            return GmlError(message, *self._end)
        return GmlError(message, tok.line, tok.column)


def _parse_element(ts: TokenStream, tok: Token) -> tuple[tuple[int, ...], str]:
    """Read the ``[ ... ]`` after a ``node`` or ``edge`` keyword ``tok``.

    ``node [ id N label "L" ]`` gives ``((N,), "L")`` and
    ``edge [ source S target T label "L" ]`` gives ``((S, T), "L")``, keys
    in that order.  Graphs, rules and groups all read elements here; each
    caller checks the ids and labels against its own declarations.
    """
    ts.expect("[")
    ids = []
    for key in ("id",) if tok.value == "node" else ("source", "target"):
        ts.expect_word(key)
        ids.append(int(ts.expect("int", f"{tok.value} {key}").value))
    ts.expect_word("label")
    label = ts.expect("str", f"{tok.value} label").value
    ts.expect("]")
    return tuple(ids), label


def _parse_graph_body(ts: TokenStream) -> tuple[list[tuple[int, str, Token]],
                                                list[tuple[int, int, str, Token]]]:
    """Parse ``[ node ... edge ... ]`` returning raw node/edge declarations."""
    ts.expect("[")
    nodes: list[tuple[int, str, Token]] = []
    edges: list[tuple[int, int, str, Token]] = []
    while True:
        tok = ts.next()
        if tok.kind == "]":
            break
        if tok.kind != "word" or tok.value not in ("node", "edge"):
            raise GmlError(f"expected 'node', 'edge' or ']', found {tok.value!r}",
                           tok.line, tok.column)
        ids, label = _parse_element(ts, tok)
        (nodes if tok.value == "node" else edges).append((*ids, label, tok))
    return nodes, edges


def _graph_from_declarations(nodes: list[tuple[int, str, Token]],
                             edges: list[tuple[int, int, str, Token]]) -> LabeledGraph:
    """Validate raw GML declarations and build the dense graph."""
    ext_to_dense: dict[int, int] = {}
    labels: list[str] = []
    ext_ids: list[int] = []
    for nid, lbl, tok in nodes:
        if nid in ext_to_dense:
            raise GmlError(f"duplicate node id {nid}", tok.line, tok.column)
        if lbl == "":
            raise GmlError(f"node {nid} has an empty label", tok.line, tok.column)
        ext_to_dense[nid] = len(labels)
        labels.append(lbl)
        ext_ids.append(nid)

    dense_edges: list[tuple[int, int, str]] = []
    seen: set[tuple[int, int]] = set()
    for src, tgt, lbl, tok in edges:
        if src not in ext_to_dense:
            raise GmlError(f"edge references undeclared node {src}", tok.line, tok.column)
        if tgt not in ext_to_dense:
            raise GmlError(f"edge references undeclared node {tgt}", tok.line, tok.column)
        if src == tgt:
            raise GmlError(f"self-loop on node {src}", tok.line, tok.column)
        if lbl == "":
            raise GmlError(f"edge ({src}, {tgt}) has an empty label", tok.line, tok.column)
        u, v = ext_to_dense[src], ext_to_dense[tgt]
        key = _normalize(u, v)
        if key in seen:
            raise GmlError(f"duplicate edge ({src}, {tgt})", tok.line, tok.column)
        seen.add(key)
        dense_edges.append((u, v, lbl))
    return LabeledGraph.from_parts(labels, dense_edges, ext_ids)


def parse_gml_graph(text: str) -> LabeledGraph:
    """Parse a ``graph [ ... ]`` block into a :class:`LabeledGraph`.

    Nodes and edges may be declared in any order: an edge may come before
    the nodes it joins.  The declarations are checked once the block and
    the text are read; duplicate ids, empty labels, self-loops, duplicate
    edges and edges to undeclared nodes are reported with the position of
    the offending declaration.
    """
    ts = TokenStream.from_text(text)
    ts.expect_word("graph")
    nodes, edges = _parse_graph_body(ts)
    if not ts.at_end():
        raise ts.error("trailing content after graph block")
    return _graph_from_declarations(nodes, edges)


def _gml_string(label: str, owner: str) -> str:
    """``label`` if a GML string can hold it, else :class:`ValueError`."""
    if '"' in label or "\n" in label:
        raise ValueError(f"{owner} has a label {label!r}, and a GML string "
                         "cannot hold a '\"' or a newline")
    return label


def write_gml_graph(g: LabeledGraph) -> str:
    """Serialize a graph to GML using its external ids, ascending.

    A GML string has no escape, so a label holding ``"`` or a newline
    raises :class:`ValueError` naming the node's external id or the
    edge's external endpoints.
    """
    order = sorted(g.nodes(), key=lambda v: g.ext_ids[v])
    lines = ["graph ["]
    for v in order:
        lbl = _gml_string(g.label(v), f"node {g.ext_ids[v]}")
        lines.append(f'  node [ id {g.ext_ids[v]} label "{lbl}" ]')
    ext_edges = []
    for u, v, lbl in g.edges():
        a, b = g.ext_ids[u], g.ext_ids[v]
        if a > b:
            a, b = b, a
        ext_edges.append((a, b, lbl))
    for a, b, lbl in sorted(ext_edges):
        lbl = _gml_string(lbl, f"edge ({a}, {b})")
        lines.append(f'  edge [ source {a} target {b} label "{lbl}" ]')
    lines.append("]\n")
    return "\n".join(lines)


# -- combinators -----------------------------------------------------------

def disjoint_union(graphs: Sequence[LabeledGraph]) -> tuple[LabeledGraph, tuple[tuple[int, int], ...]]:
    """Stack graphs side by side.

    Returns the union and an origin map: for each node of the union, the
    pair ``(graph_index, node_id_in_that_graph)``.
    """
    labels: list[str] = []
    adj: list[dict[int, str]] = []
    origin: list[tuple[int, int]] = []
    for gi, g in enumerate(graphs):
        offset = len(labels)
        labels.extend(g._labels)
        adj.extend({u + offset: lbl for u, lbl in nbrs.items()} for nbrs in g._adj)
        origin.extend((gi, v) for v in g.nodes())
    return LabeledGraph(labels, tuple(adj), tuple(range(len(labels)))), tuple(origin)


def connected_components(g: LabeledGraph) -> list[tuple[LabeledGraph, tuple[int, ...]]]:
    """Split into connected components.

    Each component comes with the tuple of original node ids it was carved
    from (ascending); components are ordered by their smallest original id.
    Components are numbered ``0..n-1`` (their ``ext_ids``), whatever ids
    ``g`` was declared with.
    """
    n = g.node_count
    adj = g._adj
    comp_of = [-1] * n
    members_of: list[list[int]] = []
    for start in range(n):
        if comp_of[start] >= 0:
            continue
        c = len(members_of)
        comp_of[start] = c
        stack = [start]
        members = [start]
        while stack:
            for u in adj[stack.pop()]:
                if comp_of[u] < 0:
                    comp_of[u] = c
                    members.append(u)
                    stack.append(u)
        members.sort()
        members_of.append(members)
    if len(members_of) == 1:
        # The whole graph is one component: share its immutable parts.
        return [(LabeledGraph(g._labels, adj, tuple(range(n))), tuple(members_of[0]))]
    local = [0] * n
    for members in members_of:
        for i, v in enumerate(members):
            local[v] = i
    # The renumbering is monotone within each component, so every
    # renumbered mapping stays in ascending order.
    labels = g._labels
    return [(LabeledGraph([labels[v] for v in members],
                          tuple({local[u]: lbl for u, lbl in adj[v].items()} for v in members),
                          tuple(range(len(members)))),
             tuple(members))
            for members in members_of]
