"""Acceptance gate: every advertised guarantee, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py``; each test enforces one
shipped guarantee at its stated tolerance, so the verbose report doubles
as the acceptance record.
"""

from __future__ import annotations

import hashlib
import math
import time
from random import Random

import pytest

from grw import (ApplicationError, LabeledGraph, NoEdge, Pattern, RuleGraph,
                 RuleNode, apply, apply_all, are_isomorphic, canonical_key,
                 connected_components, disjoint_union, explore,
                 find_monomorphisms, parse_gml_rule)
from grw.chem import (Molecule, RateParams, all_cycles, canonical_smiles,
                      check_chem_rule, fill_hydrogens, parse_smiles,
                      perceive_aromaticity, perceive_rings, reaction_rate)
from grw.network import ExpansionConfig, expand, to_dot, to_gml
from grw.demos import (alive_cells, claw_graph, grid_graph, life_step,
                       render_sudoku, solve_sudoku, sudoku_graph,
                       triangle_graph)

from conftest import asset_text, load_rule, permuted, prep
from oracles import (brute_force_monomorphisms, dpo_oracle,
                     exhaustive_simple_cycles, isomorphic, life_step_oracle,
                     random_constraints, random_graph, solve_sudoku_oracle)
from test_canonical import ASSORTED, NADH, NADP
from test_demos import WIKI_PUZZLE, WIKI_SOLUTION
from test_rules import host_embedding_left, random_rule


def test_criterion_01_formose_growth(formose_net5):
    """Iterations 1-5 grow the molecule count 3, 5, 9, 37, 302 — exactly."""
    rows = formose_net5.stats()
    assert [mols for _, mols, _ in rows[1:]] == [3, 5, 9, 37, 302]
    assert sum(formose_net5.elapsed.values()) <= 60.0


@pytest.mark.slow
def test_criterion_01_formose_sixth_iteration(formose_net6):
    """Iteration 6 reaches 10572 molecules within ten minutes, and its
    DOT and GML exports keep their pinned digest."""
    assert formose_net6.stats()[6][1] == 10572
    assert sum(formose_net6.elapsed.values()) <= 600.0
    digest = hashlib.sha256((to_dot(formose_net6) + to_gml(formose_net6)).encode())
    assert digest.hexdigest() == \
        "698fded552a2f9dae32d1cd4ee2e81530844404ba6987be1052b3ccd8bc74554"


def test_criterion_02_diels_alder_products(diels_alder_rule):
    """Isoprene + propene: 4 raw rewrites, 2 distinct products, < 1 s."""
    host, _ = disjoint_union([prep("CC(=C)C=C").graph, prep("CC=C").graph])
    t0 = time.monotonic()
    raw = apply_all(diels_alder_rule, host)
    distinct = apply_all(diels_alder_rule, host, dedup=True)
    elapsed = time.monotonic() - t0
    assert len(raw) == 4
    assert len(distinct) == 2
    assert not are_isomorphic(distinct[0].graph, distinct[1].graph)
    assert elapsed < 1.0


def test_criterion_03_matching_oracle_equivalence():
    """200 random pattern/host/constraint cases agree with brute force."""
    rng = Random(816)
    node_labels, edge_labels = ["A", "B", "C"], ["-", "="]
    nonempty = 0
    for case in range(200):
        wildcard = "*" if rng.random() < 0.4 else None
        host = random_graph(rng, 8, node_labels, edge_labels, edge_p=0.5)
        pool = node_labels + (["*"] if wildcard else [])
        epool = edge_labels + (["*"] if wildcard else [])
        pat = random_graph(rng, 4, pool, epool, edge_p=0.5, min_nodes=1)
        cons = random_constraints(rng, pat, node_labels, edge_labels, wildcard)
        pattern = Pattern(pat, constraints=cons, wildcard=wildcard)
        got = find_monomorphisms(pattern, host)
        assert got == brute_force_monomorphisms(pattern, host), f"case {case}"
        nonempty += bool(got)
    assert nonempty >= 20


def test_criterion_04_dpo_arithmetic():
    """100 random (rule, host, match) triples satisfy the set equations."""
    rng = Random(417)
    checked = 0
    while checked < 100:
        rule = random_rule(rng)
        host = host_embedding_left(rule, rng)
        pattern, _ = rule.left_pattern()
        for match in find_monomorphisms(pattern, host)[:3]:
            want_nodes, want_edges, collided = dpo_oracle(rule, host, match)
            if collided:
                with pytest.raises(ApplicationError):
                    apply(rule, host, match)
                continue
            res = apply(rule, host, match)
            got_nodes = {res.node_origin[v]: res.graph.label(v)
                         for v in res.graph.nodes()}
            got_edges = {}
            for u, v, lbl in res.graph.edges():
                a, b = res.node_origin[u], res.node_origin[v]
                got_edges[(min(a, b), max(a, b))] = lbl
            assert got_nodes == want_nodes
            assert got_edges == want_edges
            checked += 1
            if checked == 100:
                break


def test_criterion_05_canonical_smiles_properties(formose_rules,
                                                  formose_inputs):
    """>= 100 molecules x 50 permutations: one string per molecule,
    distinct strings across non-isomorphic pairs, parse roundtrip."""
    net = expand(formose_inputs, formose_rules, ExpansionConfig(iterations=3))
    corpus = [mol for mol, _ in net.molecules.values()]
    corpus += [prep(s) for s in ASSORTED] + [prep(NADH), prep(NADP)]
    assert len(corpus) >= 100

    rng = Random(50)
    named = []
    for m in corpus:
        canon = canonical_smiles(m)
        for _ in range(50):
            assert canonical_smiles(permuted(m, rng)) == canon
        named.append((canon, m))

    buckets: dict[tuple, list] = {}
    for canon, m in named:
        g = m.graph
        key = (g.node_count, g.edge_count, tuple(sorted(g.node_labels)),
               tuple(sorted(lbl for _, _, lbl in g.edges())))
        buckets.setdefault(key, []).append((canon, m))
    classes = 0
    for entries in buckets.values():
        reps: list = []
        for canon, m in entries:
            for rcanon, rm in reps:
                assert (canon == rcanon) == isomorphic(m.graph, rm.graph)
                if canon == rcanon:
                    break
            else:
                reps.append((canon, m))
        classes += len(reps)
    assert classes >= 100

    for canon, m in named:
        (back,) = parse_smiles(canon)
        back = fill_hydrogens(back)
        assert isomorphic(back.graph, m.graph)
        assert canonical_smiles(back) == canon


def test_criterion_06_ring_perception():
    """K4 has 7 cycles, naphthalene 3 rings, benzene 1; random graphs up
    to 8 nodes agree with the exhaustive oracle."""
    k4 = LabeledGraph.from_parts(
        ["A"] * 4, [(u, v, "-") for u in range(4) for v in range(u + 1, 4)])
    assert len(all_cycles(k4)) == 7
    assert all_cycles(k4) == exhaustive_simple_cycles(k4)
    assert len(perceive_rings(prep("c1ccc2ccccc2c1"))) == 3
    assert len(perceive_rings(prep("c1ccccc1"))) == 1

    rng = Random(68)
    for _ in range(40):
        g = random_graph(rng, 8, ["A"], ["-"], edge_p=0.45)
        assert all_cycles(g) == exhaustive_simple_cycles(g)


def test_criterion_07_aromaticity():
    """Benzene is aromatic, cyclohexane is not; the charged nicotinamide
    ring is aromatic while the reduced one is not."""
    def aromatic_bonds(m):
        return sum(1 for _, _, lbl in m.graph.edges() if lbl == ":")

    assert aromatic_bonds(prep("C1=CC=CC=C1")) == 6
    assert aromatic_bonds(prep("C1CCCCC1")) == 0

    nadh, nadp = prep(NADH), prep(NADP)
    nadh_labels = {nadh.graph.label(v) for v in nadh.graph.nodes()}
    nadp_labels = {nadp.graph.label(v) for v in nadp.graph.nodes()}
    assert "n+" in nadp_labels            # aromatic pyridinium nitrogen
    assert not {"n+", "N+"} & nadh_labels
    assert aromatic_bonds(nadp) == 16     # adenine (10) + nicotinamide (6)
    assert aromatic_bonds(nadh) == 10     # adenine only


def test_criterion_08_rule_checking(formose_rules, formose_inputs,
                                    diels_alder_rule):
    """Atom deletion is rejected; right-only edges get NoEdge guards; the
    growth run never hits an edge collision."""
    deleting = RuleGraph("vanish", (RuleNode(1, left="C", right=None),), ())
    violations, _ = check_chem_rule(deleting)
    assert any("mass" in str(v) for v in violations)

    noedge_pairs = {frozenset((c.source, c.target))
                    for c in diels_alder_rule.constraints
                    if isinstance(c, NoEdge)}
    right_only = [e for e in diels_alder_rule.edges if e.left is None]
    assert right_only, "the cycloaddition adds edges"
    for e in right_only:
        assert frozenset((e.source, e.target)) in noedge_pairs

    try:
        net = expand(formose_inputs, formose_rules,
                     ExpansionConfig(iterations=3))
    except ApplicationError as exc:  # pragma: no cover - must not happen
        pytest.fail(f"edge collision during expansion: {exc}")
    assert net.stats()[3] == (3, 9, 10)


def test_criterion_09_rates():
    """rate(0) = 1 exactly; rate(RT) = 1/e and detailed balance to 1e-12."""
    params = RateParams()
    assert reaction_rate(0.0, params) == 1.0
    rt = params.R * params.T
    assert abs(reaction_rate(rt, params) - math.exp(-1)) <= 1e-12 * math.exp(-1)
    for delta in (0.7, 3.2, 12.5, 40.0):
        product = reaction_rate(delta, params) * reaction_rate(-delta, params)
        assert abs(product - 1.0) <= 1e-12


def test_criterion_10_demos():
    """Blinker period 2 against the oracle; Sudoku equals an independent
    solver; Y-D roundtrips and is caught by the BFS equivalence; the
    lactam-opening rule checks cleanly and rewires as drawn."""
    life_rules = [parse_gml_rule(asset_text(n)) for n in
                  ("life_birth.gml", "life_death.gml", "life_survival.gml")]
    vertical = {(1, 2), (2, 2), (3, 2)}
    horizontal = {(2, 1), (2, 2), (2, 3)}
    g = grid_graph(5, 5, alive=vertical)
    for step in range(1, 11):
        expected = life_step_oracle(alive_cells(g, 5), 5, 5, torus=False)
        g = life_step(g, life_rules)
        assert alive_cells(g, 5) == expected
        assert alive_cells(g, 5) == (horizontal if step % 2 else vertical)

    solved = solve_sudoku(sudoku_graph(WIKI_PUZZLE))
    flat = render_sudoku(solved).replace("\n", "")
    assert flat == WIKI_SOLUTION
    assert flat == "".join(map(str, solve_sudoku_oracle(WIKI_PUZZLE)))

    wye = parse_gml_rule(asset_text("wye_to_delta.gml"))
    dwye = parse_gml_rule(asset_text("delta_to_wye.gml"))
    claw = claw_graph()
    delta = apply_all(wye, claw)[0].graph
    assert are_isomorphic(apply_all(dwye, delta)[0].graph, claw)
    found = explore([claw], [wye, dwye], strategy="bfs", depth=1,
                    key=canonical_key,
                    goal=lambda h: are_isomorphic(h, triangle_graph()))
    assert found.path is not None and len(found.path) == 2

    lactamase = load_rule("beta_lactamase.gml")  # parses and checks cleanly
    host, _ = disjoint_union([prep(s).graph for s in
                              ("O=C1CCN1", "[CH3:1]O", "[CH3:1]N")])
    results = apply_all(lactamase, host, dedup=True)
    assert len(results) == 1
    product = results[0].graph
    labels = {product.label(v) for v in product.nodes()}
    assert {"N+", "O-"} <= labels
    parts = sorted(
        canonical_smiles(perceive_aromaticity(Molecule(comp, {}, filled=True)))
        for comp, _ in connected_components(product))
    assert parts == ["C1CNC1([O-])O[CH3:1]", "[CH3:1][NH3+]"]
