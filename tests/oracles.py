"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: brute-force enumeration, direct
set arithmetic, array-based simulation.  None of it shares code with the
algorithms under test beyond the public graph accessors; the network
expander builds only on the public layers below ``grw.network``.
"""

from __future__ import annotations

import itertools
from random import Random

from grw import (Adjacency, EdgeLabel, LabeledGraph, NodeDegree, NodeLabel,
                 NoEdge, Pattern, RuleGraph, apply, apply_all, connected_components,
                 disjoint_union, find_monomorphisms)
from grw.chem import (KekulizationError, Molecule, allowed_valences, canonical_smiles,
                      parse_atom_label, perceive_aromaticity, sanity_check)


# ---------------------------------------------------------------------------
# Subgraph monomorphism by exhaustive enumeration
# ---------------------------------------------------------------------------

def _cmp(op: str, have: int, want: int) -> bool:
    if op == "=":
        return have == want
    if op == "!":
        return have != want
    if op == "<":
        return have < want
    if op == ">":
        return have > want
    raise ValueError(op)


def _constraint_ok(c, host: LabeledGraph, image, wildcard) -> bool:
    def in_set(lbl, labels):
        return lbl in labels or (wildcard is not None and wildcard in labels)

    if isinstance(c, NodeLabel):
        ok = in_set(host.label(image[c.node]), c.labels)
        return ok if c.op == "=" else not ok
    if isinstance(c, Adjacency):
        have = 0
        for u, elbl in host.neighbors(image[c.node]).items():
            if c.edge_labels and not in_set(elbl, c.edge_labels):
                continue
            if c.node_labels and not in_set(host.label(u), c.node_labels):
                continue
            have += 1
        return _cmp(c.op, have, c.count)
    if isinstance(c, NoEdge):
        return not host.has_edge(image[c.source], image[c.target])
    if isinstance(c, EdgeLabel):
        lbl = host.edge_label(image[c.source], image[c.target])
        if lbl is None:
            return False
        ok = in_set(lbl, c.labels)
        return ok if c.op == "=" else not ok
    if isinstance(c, NodeDegree):
        return _cmp(c.op, host.degree(image[c.node]), c.count)
    raise TypeError(c)


def brute_force_monomorphisms(pattern: Pattern | LabeledGraph,
                              host: LabeledGraph) -> list[tuple[int, ...]]:
    """All injective label-preserving embeddings, by trying every map.

    Each pattern node ranges over the host nodes its label admits; every
    injective combination of those is checked.
    """
    if isinstance(pattern, LabeledGraph):
        pattern = Pattern(pattern)
    pg, wc = pattern.graph, pattern.wildcard
    k, n = pg.node_count, host.node_count
    admits = [[h for h in range(n) if pg.label(i) == wc or pg.label(i) == host.label(h)]
              for i in range(k)]
    out = []
    for image in itertools.product(*admits):
        ok = len(set(image)) == k
        if ok:
            for u, v, lbl in pg.edges():
                hlbl = host.edge_label(image[u], image[v])
                if hlbl is None or (lbl != wc and lbl != hlbl):
                    ok = False
                    break
        if ok:
            ok = all(_constraint_ok(c, host, image, wc)
                     for c in pattern.constraints)
        if ok:
            out.append(image)
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Graph isomorphism by backtracking
# ---------------------------------------------------------------------------

def _profile(g: LabeledGraph, v: int) -> tuple:
    return g.label(v), g.degree(v), tuple(sorted(g.neighbors(v).values()))


def isomorphic(g1: LabeledGraph, g2: LabeledGraph) -> bool:
    """Whether a bijection maps ``g1`` onto ``g2``, labels and edges alike.

    Nodes of ``g1`` are mapped in breadth-first order, each to an unused
    node of ``g2`` with the same label, degree and incident edge labels;
    a candidate is kept when every pair with an already mapped node has
    the same edge label (or no edge) in both graphs.  Stops at the first
    complete map.
    """
    n = g1.node_count
    if n != g2.node_count or g1.edge_count != g2.edge_count:
        return False
    prof1 = [_profile(g1, v) for v in range(n)]
    prof2 = [_profile(g2, v) for v in range(n)]
    if sorted(prof1) != sorted(prof2):
        return False
    order: list[int] = []
    for start in range(n):
        if start in order:
            continue
        k = len(order)
        order.append(start)
        while k < len(order):
            order += [u for u in g1.neighbors(order[k]) if u not in order]
            k += 1
    image: dict[int, int] = {}

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for h in range(n):
            if h in image.values() or prof2[h] != prof1[v]:
                continue
            if all(g1.edge_label(v, u) == g2.edge_label(h, image[u]) for u in order[:i]):
                image[v] = h
                if extend(i + 1):
                    return True
                del image[v]
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# DPO rewriting by direct set arithmetic
# ---------------------------------------------------------------------------

def dpo_oracle(rule: RuleGraph, host: LabeledGraph,
               match) -> tuple[dict, dict, bool]:
    """Expected (node labels, edge labels, collided) for ``rule`` at ``match``.

    Nodes are keyed by host id (fresh nodes get ids above the host maximum,
    in rule declaration order); edges by the sorted endpoint pair.
    ``collided`` reports that a created edge would overwrite a surviving
    one, which the engine treats as an application error.
    """
    pos: dict[int, int] = {}
    for rn in rule.nodes:
        if rn.left is not None:
            pos[rn.id] = len(pos)  # left-pattern index, declaration order
    img = {rn.id: match[pos[rn.id]]
           for rn in rule.nodes if rn.left is not None}

    deleted = {img[rn.id] for rn in rule.nodes
               if rn.left is not None and rn.right is None}
    nodes = {v: host.label(v) for v in range(host.node_count)
             if v not in deleted}
    edges = {}
    for u, v, lbl in host.edges():
        if u not in deleted and v not in deleted:
            edges[(u, v)] = lbl
    for re_ in rule.edges:
        if re_.left is not None and re_.right is None:
            a, b = img[re_.source], img[re_.target]
            edges.pop((min(a, b), max(a, b)), None)

    for rn in rule.nodes:
        if rn.left is not None and rn.right is not None and rn.left != rn.right:
            nodes[img[rn.id]] = rn.right
    for re_ in rule.edges:
        if re_.left is not None and re_.right is not None and re_.left != re_.right:
            a, b = img[re_.source], img[re_.target]
            edges[(min(a, b), max(a, b))] = re_.right

    fresh = host.node_count
    for rn in rule.nodes:
        if rn.left is None and rn.right is not None:
            img[rn.id] = fresh
            nodes[fresh] = rn.right
            fresh += 1
    collided = False
    for re_ in rule.edges:
        if re_.left is None and re_.right is not None:
            a, b = img[re_.source], img[re_.target]
            key = (min(a, b), max(a, b))
            if key in edges:
                collided = True
            edges[key] = re_.right
    return nodes, edges, collided


def graph_as_sets(g: LabeledGraph) -> tuple[dict, dict]:
    """(node-id -> label, sorted-pair -> label) view of a graph."""
    return ({v: g.label(v) for v in range(g.node_count)},
            {(u, v): lbl for u, v, lbl in g.edges()})


# ---------------------------------------------------------------------------
# Network expansion by the plain product loop
# ---------------------------------------------------------------------------

def intermolecular_matches(pattern: Pattern, graphs) -> tuple[LabeledGraph, list]:
    """The disjoint union of ``graphs`` and the matches of the whole
    ``pattern`` into it that put its j-th connected component (ordered by
    smallest pattern node) inside ``graphs[j]``."""
    union, origin = disjoint_union(graphs)
    block = [origin[v][0] for v in range(union.node_count)]
    comp = [0] * pattern.graph.node_count
    for j, (_, members) in enumerate(connected_components(pattern.graph)):
        for p in members:
            comp[p] = j
    return union, [m for m in find_monomorphisms(pattern, union)
                   if all(block[v] == comp[p] for p, v in enumerate(m))]


def naive_expand(seeds, rules, iterations: int, max_atoms: int | None = None):
    """Reference network growth with deduplicated reaction signatures.

    Each iteration tries every rule on every ordered combination of the
    molecules known when it starts, one per left component: full
    :func:`apply`, every product perceived and fully sanity-checked, and
    the reaction dropped when any product is over ``max_atoms``, cannot be
    kekulized or fails a check.  Returns ``{canonical SMILES: first
    iteration}`` and the set of ``(iteration, (rule id, reactants,
    products))`` with reactants and products sorted.
    """
    known: dict[str, int] = {}
    graphs: dict[str, LabeledGraph] = {}
    for m in seeds:
        m = perceive_aromaticity(m)
        canon = canonical_smiles(m)
        known.setdefault(canon, 0)
        graphs.setdefault(canon, m.graph)
    reactions: set = set()
    seen: set = set()
    for it in range(1, iterations + 1):
        start = sorted(known)
        for rule in rules:
            pattern, _ = rule.left_pattern()
            k = len(connected_components(pattern.graph))
            for combo in itertools.product(start, repeat=k):
                union, matches = intermolecular_matches(
                    pattern, [graphs[c] for c in combo])
                for match in matches:
                    products = []
                    for comp, _ in connected_components(apply(rule, union, match).graph):
                        mol = Molecule(comp, {}, filled=True)
                        if max_atoms is not None and mol.atom_count > max_atoms:
                            break
                        try:
                            mol = perceive_aromaticity(mol)
                        except KekulizationError:
                            break
                        if sanity_check(mol):
                            break
                        products.append((canonical_smiles(mol), mol.graph))
                    else:
                        sig = (rule.rule_id, tuple(sorted(combo)),
                               tuple(sorted(c for c, _ in products)))
                        if sig in seen:
                            continue
                        seen.add(sig)
                        reactions.add((it, sig))
                        for canon, g in products:
                            if canon not in known:
                                known[canon] = it
                                graphs[canon] = g
    return known, reactions


def naive_explore(starts, rules, strategy: str, depth: int, key, goal=None):
    """Reference graph-space walk that keys every successor.

    A graph's successors are the graphs of ``apply_all(rule, g)`` for each
    rule in order, one per applicable match, duplicates included; each is
    keyed and skipped when its key is known.  ``"bfs"`` walks a queue of
    (graph, path) entries, ``"dfs"`` recurses and expands each new graph
    before the next successor, and both stop ``depth`` steps from a start.
    Returns ``(visited, path)``: ``visited`` maps each key to the graph
    first reached under it, in that order, and ``path`` runs from a start
    to the first graph ``goal`` accepts, or is ``None``.
    """
    visited: dict[str, LabeledGraph] = {}

    def successors(g):
        return [res.graph for rule in rules for res in apply_all(rule, g)]

    def new(g, path):
        """Record ``g`` if its key is new; the path to it if it is a goal."""
        k = key(g)
        if k in visited:
            return False, None
        visited[k] = g
        return True, path + [g] if goal is not None and goal(g) else None

    if strategy == "bfs":
        queue = []
        for g in starts:
            fresh, found = new(g, [])
            if found:
                return visited, found
            if fresh:
                queue.append((g, [g]))
        for g, path in queue:  # the list grows while it is walked
            if len(path) > depth:
                continue
            for h in successors(g):
                fresh, found = new(h, path)
                if found:
                    return visited, found
                if fresh:
                    queue.append((h, path + [h]))
        return visited, None

    def dfs(g, path):
        if len(path) > depth:
            return None
        for h in successors(g):
            fresh, found = new(h, path)
            if found or (fresh and (found := dfs(h, path + [h]))):
                return found
        return None

    for g in starts:
        fresh, found = new(g, [])
        if found or (fresh and (found := dfs(g, [g]))):
            return visited, found
    return visited, None


# ---------------------------------------------------------------------------
# Simple cycles by exhaustive DFS
# ---------------------------------------------------------------------------

def exhaustive_simple_cycles(g: LabeledGraph,
                             max_size: int | None = None) -> list[tuple[int, ...]]:
    """Every simple cycle once: start at its smallest node, go toward the
    smaller of the two ring neighbors."""
    cycles = set()
    for s in range(g.node_count):
        stack = [(s, (s,))]
        while stack:
            v, path = stack.pop()
            for w in g.neighbors(v):
                if w == s and len(path) >= 3:
                    if path[1] < path[-1]:
                        if max_size is None or len(path) <= max_size:
                            cycles.add(path)
                elif w > s and w not in path:
                    if max_size is None or len(path) < max_size:
                        stack.append((w, path + (w,)))
    return sorted(cycles, key=lambda c: (len(c), c))


# ---------------------------------------------------------------------------
# Game of Life on a plain array
# ---------------------------------------------------------------------------

def life_step_oracle(alive: set[tuple[int, int]], width: int, height: int,
                     torus: bool = False) -> set[tuple[int, int]]:
    nxt = set()
    for r in range(height):
        for c in range(width):
            n = 0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if torus:
                        rr, cc = rr % height, cc % width
                    elif not (0 <= rr < height and 0 <= cc < width):
                        continue
                    if (rr, cc) in alive:
                        n += 1
            if (r, c) in alive:
                if n in (2, 3):
                    nxt.add((r, c))
            elif n == 3:
                nxt.add((r, c))
    return nxt


# ---------------------------------------------------------------------------
# Sudoku by classic backtracking on a 9x9 array
# ---------------------------------------------------------------------------

def solve_sudoku_oracle(puzzle: str) -> str | None:
    cells = [c if c in "123456789" else "0"
             for c in puzzle if not c.isspace()]
    assert len(cells) == 81
    grid = [int(c) for c in cells]

    def box(i: int) -> int:
        return (i // 27) * 3 + (i % 9) // 3

    def candidates(i: int):
        used = set()
        r, c = divmod(i, 9)
        for j in range(81):
            if grid[j] and (j // 9 == r or j % 9 == c or box(j) == box(i)):
                used.add(grid[j])
        return [d for d in range(1, 10) if d not in used]

    def rec() -> bool:
        best, opts = -1, None
        for i in range(81):
            if grid[i] == 0:
                cand = candidates(i)
                if opts is None or len(cand) < len(opts):
                    best, opts = i, cand
                if not cand:
                    return False
        if best == -1:
            return True
        for d in opts:
            grid[best] = d
            if rec():
                return True
            grid[best] = 0
        return False

    if not rec():
        return None
    return "".join(str(d) for d in grid)


# ---------------------------------------------------------------------------
# Atom tally by direct counting
# ---------------------------------------------------------------------------

_BOND_ORDER = {"-": 1, "=": 2, "#": 3}


def reference_tally(g: LabeledGraph):
    """``(rows, heavy, heavy_adj, odd_edges)`` counted edge by edge.

    ``rows[v]`` is ``(label, H neighbours, non-aromatic bond-order sum,
    aromatic bond count, the same two over heavy neighbours)``; ``heavy``
    lists the nodes not labelled ``H``; ``heavy_adj[i]`` lists
    ``(index in heavy, bond label)`` per heavy neighbour of ``heavy[i]``
    in neighbour order; ``odd_edges`` lists the ``(u, v, label)`` whose
    label is none of ``- = # :``, in ``edges()`` order.
    """
    labels = g.node_labels
    rows = []
    for v in g.nodes():
        everything = list(g.neighbors(v).items())
        heavy_only = [(u, b) for u, b in everything if labels[u] != "H"]
        rows.append((labels[v], len(everything) - len(heavy_only),
                     sum(_BOND_ORDER.get(b, 0) for _, b in everything),
                     sum(1 for _, b in everything if b == ":"),
                     sum(_BOND_ORDER.get(b, 0) for _, b in heavy_only),
                     sum(1 for _, b in heavy_only if b == ":")))
    heavy = [v for v in g.nodes() if labels[v] != "H"]
    index = {v: i for i, v in enumerate(heavy)}
    heavy_adj = [[(index[u], b) for u, b in g.neighbors(v).items() if u in index]
                 for v in heavy]
    odd = [(u, v, b) for u, v, b in g.edges() if b not in ("-", "=", "#", ":")]
    return rows, heavy, heavy_adj, odd


# ---------------------------------------------------------------------------
# Kekulé structures by exhaustive enumeration
# ---------------------------------------------------------------------------

def kekule_structures(g: LabeledGraph) -> list[frozenset[tuple[int, int]]]:
    """Every Kekulé structure of a graph with at most 16 aromatic atoms.

    An aromatic atom (one with a ``:`` bond) needs the fewest bond orders
    that bring it to one of its allowed valences, its aromatic bonds
    counted as single.  A structure is a set of aromatic bonds ``(u, v)``,
    ``u < v``, to be made double: exactly one at each atom that needs one,
    none at an atom that needs none.  An atom that needs more than one, or
    that is past every allowed valence, leaves no structure.
    """
    partners: dict[int, set[int]] = {}
    for u, v, b in g.edges():
        if b == ":":
            partners.setdefault(u, set()).add(v)
            partners.setdefault(v, set()).add(u)
    assert len(partners) <= 16
    needy = set()
    for v in partners:
        atom = parse_atom_label(g.label(v))
        if atom is None:
            return []
        bonds = list(g.neighbors(v).values())
        have = sum(_BOND_ORDER.get(b, 0) for b in bonds) + bonds.count(":")
        gaps = [val - have for val in allowed_valences(atom.element, atom.charge) if val >= have]
        if not gaps or min(gaps) > 1:
            return []
        if min(gaps) == 1:
            needy.add(v)

    # Every perfect matching of the needy atoms along aromatic bonds: the
    # smallest atom left takes each of its partners in turn.
    found = []
    todo = [(frozenset(needy), frozenset())]
    while todo:
        left, doubles = todo.pop()
        if not left:
            found.append(doubles)
            continue
        v = min(left)
        for u in partners[v] & left:
            todo.append((left - {u, v}, doubles | {(min(u, v), max(u, v))}))
    return found


# ---------------------------------------------------------------------------
# Partition refinement, round by round
# ---------------------------------------------------------------------------

def reference_refine(nbrs, colors: list[int], cells: dict[int, list[int]], touched) -> None:
    """The ordered-partition refinement of ``grw.match`` as first written:
    each synchronous round examines the cells next to every member of a
    cell that split in the round before, splits each by the sorted tuple
    of its members' ``colors[u] + off`` over ``nbrs[v]``, and orders the
    parts by that tuple; it stops when a round splits nothing."""
    while True:
        candidates = {colors[u] for v in touched for u, _ in nbrs[v]}
        splits = []
        for start in candidates:
            members = cells[start]
            if len(members) == 1:
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for v in members:
                sig = tuple(sorted([colors[u] + off for u, off in nbrs[v]]))
                parts.setdefault(sig, []).append(v)
            if len(parts) > 1:
                splits.append((start, parts))
        if not splits:
            return
        touched = []
        for start, parts in splits:
            for sig in sorted(parts):
                part = parts[sig]
                cells[start] = part
                for v in part:
                    colors[v] = start
                start += len(part)
                touched += part


def reference_refined(adj, colors):
    """``(nbrs, colors, cells)``: the neighbour pairs ``(u, code * n)``
    and the initial colouring refined by :func:`reference_refine`, colours
    as the start position of the cell in the ordering."""
    n = len(adj)
    nbrs = [[(u, code * n) for u, code in a] for a in adj]
    order = sorted(range(n), key=lambda v: colors[v])
    pos = [0] * n
    cells: dict[int, list[int]] = {}
    for i, v in enumerate(order):
        pos[v] = i if i == 0 or colors[v] != colors[order[i - 1]] else pos[order[i - 1]]
        cells.setdefault(pos[v], []).append(v)
    reference_refine(nbrs, pos, cells, range(n))
    return nbrs, pos, cells


# ---------------------------------------------------------------------------
# Random test-case generators (deterministic via caller-provided Random)
# ---------------------------------------------------------------------------

def random_graph(rng: Random, max_nodes: int, node_labels, edge_labels,
                 edge_p: float = 0.5, min_nodes: int = 0) -> LabeledGraph:
    n = rng.randint(min_nodes, max_nodes)
    labels = [rng.choice(node_labels) for _ in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_p:
                edges.append((u, v, rng.choice(edge_labels)))
    return LabeledGraph.from_parts(labels, edges)


def random_constraints(rng: Random, pattern_graph: LabeledGraph, node_labels,
                       edge_labels, wildcard: str | None):
    """A random bag of constraints over the pattern's nodes and edges."""
    k = pattern_graph.node_count
    pattern_edges = [(u, v) for u, v, _ in pattern_graph.edges()]
    out = []
    pool = list(node_labels) + ([wildcard] if wildcard else [])
    epool = list(edge_labels) + ([wildcard] if wildcard else [])
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(5)
        if kind == 0:
            out.append(NodeLabel(
                node=rng.randrange(k), op=rng.choice("=!"),
                labels=frozenset(rng.sample(pool, rng.randint(1, len(pool))))))
        elif kind == 1:
            out.append(Adjacency(
                node=rng.randrange(k), op=rng.choice("=!<>"),
                count=rng.randint(0, 3),
                node_labels=frozenset(rng.sample(pool, rng.randint(0, len(pool)))),
                edge_labels=frozenset(rng.sample(epool, rng.randint(0, len(epool))))))
        elif kind == 2 and k >= 2:
            a, b = rng.sample(range(k), 2)
            out.append(NoEdge(source=a, target=b))
        elif kind == 3 and pattern_edges:
            a, b = rng.choice(pattern_edges)
            out.append(EdgeLabel(
                source=a, target=b, op=rng.choice("=!"),
                labels=frozenset(rng.sample(epool, rng.randint(1, len(epool))))))
        else:
            out.append(NodeDegree(
                node=rng.randrange(k), op=rng.choice("=!<>"),
                count=rng.randint(0, 4)))
    return out
