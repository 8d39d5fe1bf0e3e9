"""Property tests: canonical keys and dedup against the backtracking oracle,
matching against the brute-force oracle, exploration against a walk that
keys every successor, the GML graph round trip, and canonical SMILES on
generated molecules, and kekulization against the exhaustive Kekulé
oracle.

Labels draw from plain letters and from short strings over an alphabet
holding the key's separators, so a key that fails to escape them would
give two different graphs the same string.  Generated molecules mix
organic-subset atoms with charged, class-tagged and hydrogen-pinned ones,
so their canonical SMILES hold bracket atoms.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

import grw.match
from grw import (Adjacency, EdgeLabel, LabeledGraph, NoEdge, NodeDegree, NodeLabel,
                 Pattern, RuleEdge, RuleGraph, RuleNode, apply_all, canonical_key,
                 explore, find_monomorphisms, parse_gml_graph, parse_gml_rule,
                 write_gml_graph)
from grw.chem import (KekulizationError, Molecule, canonical_smiles, fill_hydrogens,
                      kekulize, parse_smiles)

from conftest import asset_text
from oracles import brute_force_monomorphisms, isomorphic, kekule_structures, naive_explore

LABELS = st.one_of(st.sampled_from(["a", "b"]),
                   st.text(alphabet="ab,|;\\-:", min_size=1, max_size=3))


@st.composite
def graphs(draw, max_nodes: int = 7) -> LabeledGraph:
    n = draw(st.integers(0, max_nodes))
    labels = draw(st.lists(LABELS, min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return LabeledGraph.from_parts(labels, [(u, v, draw(LABELS)) for u, v in chosen])


def permute(g: LabeledGraph, perm: list[int]) -> LabeledGraph:
    """``g`` with node ``v`` renamed ``perm[v]``."""
    labels = [""] * g.node_count
    for v, lbl in enumerate(g.node_labels):
        labels[perm[v]] = lbl
    return LabeledGraph.from_parts(labels, [(perm[u], perm[v], lbl) for u, v, lbl in g.edges()])


@st.composite
def permuted_pairs(draw, source=graphs()) -> tuple[LabeledGraph, LabeledGraph]:
    g = draw(source)
    return g, permute(g, draw(st.permutations(range(g.node_count))))


@st.composite
def related_pairs(draw, source=graphs()) -> tuple[LabeledGraph, LabeledGraph]:
    """Two independent graphs, or a graph and a permuted copy with at
    most one node label changed, so equal and unequal keys both occur."""
    g, h = draw(permuted_pairs(source))
    if draw(st.booleans()):
        return g, draw(source)
    if h.node_count and draw(st.booleans()):
        labels = list(h.node_labels)
        labels[draw(st.integers(0, h.node_count - 1))] = draw(LABELS)
        h = LabeledGraph.from_parts(labels, h.edges())
    return g, h


# Pairs whose keys coincide unless separators (and, in the last two pairs,
# the escape character itself) are escaped.
COLLISIONS = [
    (LabeledGraph.from_parts(["a", "b,c"], []), LabeledGraph.from_parts(["a,b", "c"], [])),
    (LabeledGraph.from_parts(["a", "a", "b", "b"], [(0, 1, "e;2-3:e")]),
     LabeledGraph.from_parts(["a", "a", "b", "b"], [(0, 1, "e"), (2, 3, "e")])),
    (LabeledGraph.from_parts(["a\\", "b", "c,d"], []),
     LabeledGraph.from_parts(["a,b", "c\\", "d"], [])),
    (LabeledGraph.from_parts(["a", "a", "b", "b"], [(0, 1, "e\\"), (2, 3, "e")]),
     LabeledGraph.from_parts(["a", "a", "b", "b"], [(0, 1, "e;2-3:e")])),
]


@given(permuted_pairs())
def test_canonical_key_ignores_node_order(pair):
    g, h = pair
    assert canonical_key(g) == canonical_key(h)


@st.composite
def twinned_graphs(draw) -> LabeledGraph:
    """A random graph with planted twins.

    First up to two drawn vertices each get two equal stars (a centre
    with three leaves), so a cell can hold several classes of leaf twins
    whose members are interleaved in node order.
    Then up to three vertices get 1-3 copies each: same label, same
    labelled edge to every other vertex, and either no edge among the
    copies and the original or one drawn label on all of those edges.
    Each copy takes its original's current edges, so copies made earlier
    stay twins."""
    g = draw(graphs(max_nodes=5))
    labels = list(g.node_labels)
    adj = [dict(g.neighbors(v)) for v in g.nodes()]

    def add(label: str, joined_to: int, bond: str) -> int:
        labels.append(label)
        adj.append({joined_to: bond})
        adj[joined_to][len(labels) - 1] = bond
        return len(labels) - 1

    hosts = draw(st.lists(st.integers(0, len(labels) - 1), max_size=2)) if labels else []
    for v in hosts:
        centre, leaf, bond = (draw(st.sampled_from("ab")) for _ in range(3))
        for _ in range(2):
            c = add(centre, v, bond)
            for _ in range(3):
                add(leaf, c, bond)
    originals = draw(st.lists(st.integers(0, len(labels) - 1), unique=True, max_size=3)) \
        if labels else []
    for v in originals:
        join = draw(st.one_of(st.none(), LABELS))
        family = [v]
        for _ in range(draw(st.integers(1, 3))):
            c = len(labels)
            labels.append(labels[v])
            adj.append(dict(adj[v]))
            for u, lbl in adj[v].items():
                adj[u][c] = lbl
            if join is not None:
                for w in family:
                    adj[c][w] = adj[w][c] = join
            family.append(c)
    return LabeledGraph.from_parts(labels, [(u, v, lbl) for u, a in enumerate(adj)
                                            for v, lbl in a.items() if u < v])


@given(permuted_pairs(twinned_graphs()))
def test_twinned_key_ignores_node_order(pair):
    g, h = pair
    assert canonical_key(g) == canonical_key(h)


@given(related_pairs(twinned_graphs()))
def test_twinned_keys_equal_exactly_for_isomorphic_graphs(pair):
    g, h = pair
    assert (canonical_key(g) == canonical_key(h)) == isomorphic(g, h)


@given(related_pairs())
@example(COLLISIONS[0])
@example(COLLISIONS[1])
@example(COLLISIONS[2])
@example(COLLISIONS[3])
def test_equal_keys_exactly_for_isomorphic_graphs(pair):
    g, h = pair
    assert (canonical_key(g) == canonical_key(h)) == isomorphic(g, h)


RULES = [
    RuleGraph("relabel", [RuleNode(1, "a", "b,a")], []),
    RuleGraph("join", [RuleNode(1, "a", "a"), RuleNode(2, "a", "a")],
              [RuleEdge(1, 2, None, "e;0-1:e")], [NoEdge(1, 2)]),
]


@given(st.sampled_from(RULES), graphs())
def test_dedup_keeps_what_a_pairwise_scan_keeps(rule, host):
    kept = []
    for res in apply_all(rule, host):
        if not any(isomorphic(res.graph, k.graph) for k in kept):
            kept.append(res)
    distinct = apply_all(rule, host, dedup=True)
    assert [r.match for r in distinct] == [r.match for r in kept]


MATCH_LABELS = ("A", "B", "C")
MATCH_BONDS = ("-", "=")


@st.composite
def match_hosts(draw) -> LabeledGraph:
    """9-12 nodes, at most four of each label, so the brute-force oracle
    tries at most 4 host nodes for each labelled pattern node."""
    labels = draw(st.permutations(MATCH_LABELS * 4))[:draw(st.integers(9, 12))]
    pairs = [(u, v) for u in range(len(labels)) for v in range(u + 1, len(labels))]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30))
    return LabeledGraph.from_parts(
        labels, [(u, v, draw(st.sampled_from(MATCH_BONDS))) for u, v in chosen])


@st.composite
def match_patterns(draw) -> Pattern:
    """5-6 nodes, often disconnected, so steps after the first may have no
    anchor; with a wildcard on edges and on at most one node, and up to
    three constraints of every kind."""
    k = draw(st.integers(5, 6))
    wildcard = draw(st.sampled_from([None, "*"]))
    labels = draw(st.lists(st.sampled_from(MATCH_LABELS), min_size=k, max_size=k))
    if wildcard and draw(st.booleans()):
        labels[draw(st.integers(0, k - 1))] = wildcard
    bonds = MATCH_BONDS + ((wildcard,) if wildcard else ())
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges = [(u, v, draw(st.sampled_from(bonds)))
             for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=7))]
    node = st.integers(0, k - 1)
    node_labels = st.lists(st.sampled_from(MATCH_LABELS + bonds[2:]), max_size=3).map(frozenset)
    edge_labels = st.lists(st.sampled_from(bonds), max_size=3).map(frozenset)
    kinds = [st.builds(NodeLabel, node, st.sampled_from("=!"), node_labels.filter(bool)),
             st.builds(Adjacency, node, st.sampled_from("=!<>"), st.integers(0, 3),
                       node_labels, edge_labels),
             st.builds(NodeDegree, node, st.sampled_from("=!<>"), st.integers(0, 4)),
             st.lists(node, min_size=2, max_size=2, unique=True).map(lambda ab: NoEdge(*ab))]
    if edges:
        kinds.append(st.builds(lambda e, op, accepted: EdgeLabel(e[0], e[1], op, accepted),
                               st.sampled_from(edges), st.sampled_from("=!"),
                               edge_labels.filter(bool)))
    constraints = draw(st.lists(st.one_of(kinds), max_size=3))
    return Pattern(LabeledGraph.from_parts(labels, edges), constraints, wildcard)


@settings(max_examples=150)
@given(match_patterns(), match_hosts())
@example(Pattern(LabeledGraph.from_parts(["A", "B", "*", "A", "C"],
                                         [(0, 1, "-"), (1, 2, "*"), (3, 4, "=")]),
                 [NoEdge(0, 3), Adjacency(4, ">", 0, frozenset({"B"}))], "*"),
         LabeledGraph.from_parts(list("ABCABCABCA"),
                                 [(u, v, "-="[(u + v) % 2]) for u in range(10)
                                  for v in range(u + 1, 10) if (u * v) % 3 != 1]))
def test_find_monomorphisms_agrees_with_brute_force(pattern, host):
    want = brute_force_monomorphisms(pattern, host)
    assert find_monomorphisms(pattern, host) == want
    assert grw.match._count_monomorphisms(pattern, host) == len(want)


YDELTA = [parse_gml_rule(asset_text(name)) for name in ("wye_to_delta.gml", "delta_to_wye.gml")]


@st.composite
def star_graphs(draw, max_nodes: int = 6) -> LabeledGraph:
    """A graph with ``*`` on every node and edge, as the Y-Δ rules take."""
    n = draw(st.integers(0, max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return LabeledGraph.from_parts(["*"] * n, [(u, v, "*") for u, v in chosen])


def _labels_key(g: LabeledGraph) -> str:
    """Labels and edges as they stand: tells isomorphic graphs apart."""
    return repr((g.node_labels, g.edges()))


def _weight(g: LabeledGraph) -> int:
    """Moved by one by every rule step, so that goals are reached at
    various depths."""
    return g.node_count + g.edge_count + g.node_labels.count("b,a")


@st.composite
def walks(draw):
    """Starts, rules, strategy, depth, key and goal for one exploration."""
    rules, source = draw(st.sampled_from([(RULES, graphs(max_nodes=5)),
                                          (YDELTA, star_graphs())]))
    starts = draw(st.lists(source, min_size=1, max_size=2))
    target = draw(st.one_of(st.none(), st.integers(-1, 3)))
    goal = None if target is None else \
        (lambda h, want=_weight(starts[0]) + target: _weight(h) == want)
    return (starts, rules, draw(st.sampled_from(["bfs", "dfs"])), draw(st.integers(0, 3)),
            draw(st.sampled_from([canonical_key, _labels_key])), goal)


def _plain(g: LabeledGraph) -> tuple:
    return g.node_labels, g.edges(), g.ext_ids


def _nodes(*labels: str) -> LabeledGraph:
    return LabeledGraph.from_parts(list(labels), [])


def _weighs(w: int):
    return lambda h: _weight(h) == w


# Frontier orders that random draws hit only by chance: the second start
# is a successor of the first (DFS keys it there, before its own turn);
# BFS records both starts before it expands either; depth 0 expands
# nothing; a start is the goal (BFS stops at the second start, DFS
# first walks the first start to a successor of the same weight).
@settings(max_examples=100)
@given(walks())
@example(([_nodes("a", "a"), _nodes("b,a", "a")], RULES, "dfs", 2, _labels_key, None))
@example(([_nodes("a"), _nodes("a", "a")], RULES, "bfs", 2, canonical_key, None))
@example(([_nodes("a"), _nodes("a", "a")], RULES, "bfs", 0, _labels_key, None))
@example(([_nodes("a"), _nodes("a", "a")], RULES, "dfs", 0, canonical_key, None))
@example(([_nodes("a", "a"), _nodes("a", "a", "a")], RULES, "bfs", 2, _labels_key, _weighs(3)))
@example(([_nodes("a", "a"), _nodes("a", "a", "a")], RULES, "dfs", 2, _labels_key, _weighs(3)))
def test_explore_agrees_with_a_walk_that_keys_every_successor(walk):
    starts, rules, strategy, depth, key, goal = walk
    out = explore(starts, rules, strategy, depth, key=key, goal=goal)
    visited, path = naive_explore(starts, rules, strategy, depth, key, goal)
    assert [(k, _plain(g)) for k, g in out.visited.items()] == \
        [(k, _plain(g)) for k, g in visited.items()]
    assert (out.path is None) == (path is None)
    if path is not None:
        assert [_plain(g) for g in out.path] == [_plain(g) for g in path]


# Characters GML strings can hold, token characters among them.  A label
# drawn from a character list builds no Unicode tables, so it is fast.
GML_LABELS = st.text(alphabet="aZ0 \t\r#[]=<>!-*'\\é", min_size=1, max_size=4)


@st.composite
def gml_graphs(draw) -> LabeledGraph:
    """Random labels, distinct external ids in any order, random edges;
    in some graphs one label holds a ``"`` or a newline, which GML
    cannot write."""
    n = draw(st.integers(0, 6))
    labels = draw(st.lists(GML_LABELS, min_size=n, max_size=n))
    ext_ids = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [[u, v, draw(GML_LABELS)] for u, v in chosen]
    spoiler = draw(st.sampled_from([None, '"', "\n"]))
    if spoiler is not None and n:
        i = draw(st.integers(0, n + len(edges) - 1))
        where, at = (labels, i) if i < n else (edges[i - n], 2)
        cut = draw(st.integers(0, len(where[at])))
        where[at] = where[at][:cut] + spoiler + where[at][cut:]
    return LabeledGraph.from_parts(labels, edges, ext_ids)


@given(gml_graphs())
def test_gml_write_then_parse_gives_the_graph_back(g):
    labels = [*g.node_labels, *(lbl for _, _, lbl in g.edges())]
    if any('"' in lbl or "\n" in lbl for lbl in labels):
        with pytest.raises(ValueError):
            write_gml_graph(g)
        return
    back = parse_gml_graph(write_gml_graph(g))
    assert back.ext_ids == tuple(sorted(g.ext_ids))

    def by_ext(h):
        ext = h.ext_ids
        return ({ext[v]: h.label(v) for v in h.nodes()},
                {(*sorted((ext[u], ext[v])), lbl) for u, v, lbl in h.edges()})

    assert by_ext(back) == by_ext(g)


ATOMS = ["C", "C", "N", "O", "S", "Cl", "N+", "O-", "C:1", "N+:2", "O-2", "S+2", "Fe+3", "P-:12"]


@st.composite
def molecules(draw, max_heavy: int = 7, branches: int = 0) -> Molecule:
    """A filled, connected molecule: a random tree of heavy atoms plus a
    few ring bonds, with each atom's hydrogen count left to the valence
    rules or pinned as by a bracket atom.  With ``branches``, up to that
    many methyl and tert-butyl groups are then bonded to drawn atoms,
    several to one atom in some draws."""
    n = draw(st.integers(1, max_heavy))
    labels = draw(st.lists(st.sampled_from(ATOMS), min_size=n, max_size=n))
    bonds = st.sampled_from("-=#")
    edges = {(draw(st.integers(0, v - 1)), v): draw(bonds) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if pairs:
        for pair in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2)):
            edges[pair] = draw(bonds)
    pinned = draw(st.lists(st.one_of(st.none(), st.integers(0, 3)), min_size=n, max_size=n))
    for v in draw(st.lists(st.integers(0, n - 1), max_size=branches)):
        root = len(labels)
        size = draw(st.sampled_from([1, 4]))  # methyl or tert-butyl
        labels += ["C"] * size
        pinned += [None] * size
        edges[(v, root)] = "-"
        edges.update(((root, root + i), "-") for i in range(1, size))
    graph = LabeledGraph.from_parts(labels, [(u, v, b) for (u, v), b in edges.items()])
    return fill_hydrogens(Molecule(graph, {v: h for v, h in enumerate(pinned) if h is not None}))


@st.composite
def permuted_molecules(draw, source=molecules()) -> tuple[Molecule, Molecule]:
    m = draw(source)
    perm = draw(st.permutations(range(m.graph.node_count)))
    return m, Molecule(permute(m.graph, perm), {}, filled=True)


@given(permuted_molecules())
def test_canonical_smiles_ignores_node_order(pair):
    m, p = pair
    assert canonical_smiles(m) == canonical_smiles(p)


@given(permuted_molecules(molecules(max_heavy=4, branches=3)))
def test_branched_canonical_smiles_ignores_node_order(pair):
    m, p = pair
    assert canonical_smiles(m) == canonical_smiles(p)


@given(molecules())
def test_canonical_smiles_reparses_to_a_fixed_point(m):
    canon = canonical_smiles(m)
    (back,) = parse_smiles(canon)
    back = fill_hydrogens(back)
    assert isomorphic(back.graph, m.graph), canon
    assert canonical_smiles(back) == canon


AROMATIC_ATOMS = ["c"] * 30 + ["n", "n", "o", "s", "p", "b", "n+", "c-", "o+", "C"]


@st.composite
def aromatic_molecules(draw) -> Molecule:
    """A filled molecule with up to 16 aromatic atoms in one to three
    rings.  A drawn chord fuses a ring; a later ring is bonded to an
    earlier one by an aromatic bond, a single bond or not at all, so a
    molecule may hold several aromatic systems.  Hydrogen counts are left
    to the valence rules or pinned, and an atom may carry ``=O`` or
    ``-C``, so Kekulé needs vary and a structure may or may not exist."""
    labels: list[str] = []
    edges: dict[tuple[int, int], str] = {}
    for size in draw(st.lists(st.sampled_from([3, 4, 5, 6, 6, 6, 7]), min_size=1, max_size=3)):
        start = len(labels)
        if start + size > 16:
            break
        labels += draw(st.lists(st.sampled_from(AROMATIC_ATOMS), min_size=size, max_size=size))
        ring = range(start, start + size)
        edges.update(((v, v + 1), ":") for v in ring[:-1])
        edges[(start, ring[-1])] = ":"
        chord = draw(st.sampled_from([None, *((u, v) for u in ring for v in ring if v > u + 1)]))
        if chord is not None:
            edges[chord] = ":"
        link = draw(st.sampled_from([None, ":", "-"]))
        if start and link:
            edges[(draw(st.integers(0, start - 1)), draw(st.sampled_from(ring)))] = link
    aromatic = len(labels)
    for v in range(aromatic):
        extra = draw(st.sampled_from([None] * 6 + [("O", "="), ("C", "-")]))
        if extra is not None:
            edges[(v, len(labels))] = extra[1]
            labels.append(extra[0])
    pinned = draw(st.lists(st.sampled_from([None] * 12 + [0, 1, 2]),
                           min_size=aromatic, max_size=aromatic))
    graph = LabeledGraph.from_parts(labels, [(u, v, b) for (u, v), b in edges.items()])
    return fill_hydrogens(Molecule(graph, {v: h for v, h in enumerate(pinned) if h is not None}))


@settings(max_examples=300)
@given(aromatic_molecules())
def test_kekulize_finds_a_structure_exactly_when_the_oracle_does(m):
    structures = kekule_structures(m.graph)
    try:
        kek = kekulize(m)
    except KekulizationError:
        assert structures == []
        return
    aromatic = {(u, v) for u, v, b in m.graph.edges() if b == ":"}
    doubles = frozenset((min(u, v), max(u, v)) for u, v, b in kek.graph.edges()
                        if b == "=" and ((u, v) in aromatic or (v, u) in aromatic))
    assert doubles in structures
