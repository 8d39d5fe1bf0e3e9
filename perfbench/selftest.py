"""Self-test of the output checks: each checker accepts a real output of
the program and rejects the same output with one corruption.

    python3 perfbench/selftest.py

Exits 0 when every clean output passes and every corrupted one is
rejected; prints one line per case.
"""

from __future__ import annotations

import copy
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class _NoSlices(run.Timer):
    def maybe_slice(self) -> None:
        pass


def network_data(grw, assets):
    class Small(workloads.Formose):
        iterations = 3
        growth = tuple(g[:4] for g in workloads.FORMOSE_GROWTH)

    w = Small(grw, assets, seed=1)
    net, dot, gml = w.round(_NoSlices())
    molecules = {k: (m.graph.node_labels, list(m.graph.edges()), it)
                 for k, (m, it) in net.molecules.items()}
    reactions = [(r.rule_id, r.reactants, r.products, r.rate, r.delta_e, r.iteration)
                 for r in net.reactions]
    pairs = [(k, k) for k in molecules]
    return molecules, reactions, dot, gml, pairs, Small.growth


def cases(grw, assets):
    """(name, checker thunk, should pass) triples."""
    molecules, reactions, dot, gml, pairs, growth = network_data(grw, assets)

    def net(mols=molecules, rxns=reactions, d=dot, g=gml, p=pairs, cap=None, grow=growth):
        return lambda: checks.check_network(mols, rxns, d, g, p, True, cap, grow)

    bad_de = copy.deepcopy(reactions)
    r = bad_de[-1]
    bad_de[-1] = (r[0], r[1], r[2], r[3], r[4] + 1.5, r[5])
    bad_rate = copy.deepcopy(reactions)
    r = bad_rate[-1]
    bad_rate[-1] = (r[0], r[1], r[2], r[3] * 1.001, r[4], r[5])
    key = max(molecules, key=lambda k: len(molecules[k][0]))
    labels, edges, it = molecules[key]
    bad_atoms = dict(molecules)
    h = labels.index("H")
    bad_atoms[key] = (labels[:h] + ("O",) + labels[h + 1:], edges, it)
    dot_lines = dot.splitlines()
    arc = next(i for i, ln in enumerate(dot_lines) if " -> " in ln)
    bad_dot = "\n".join(dot_lines[:arc] + dot_lines[arc + 1:])
    bad_gml = gml.replace("  node [", "  nodex [", 1)
    bad_pairs = pairs[:-1] + [(pairs[-1][0], "C")]
    yield "network clean", net(), True
    yield "network wrong dE", net(rxns=bad_de), False
    yield "network wrong rate", net(rxns=bad_rate), False
    yield "network atom changed", net(mols=bad_atoms), False
    yield "network DOT arc dropped", net(d=bad_dot), False
    yield "network GML node dropped", net(g=bad_gml), False
    yield "network permutation mismatch", net(p=bad_pairs), False
    yield "network over the atom cap", net(cap=len(labels) - 1), False
    yield "network growth differs", net(grow=(growth[0][:-1] + [growth[0][-1] + 1], growth[1])), False

    chem = grw.chem
    records = []
    for name, smiles in (("ethanol", "OCC"), ("pyridine", "C1=CC=NC=C1"), ("thiirane", "C1CS1")):
        m = workloads.prepared(grw, smiles)
        c = chem.canonical_smiles(m)
        k = grw.match.canonical_key(m.graph)
        records.append({"name": name, "formula": checks.formula(m.graph.node_labels),
                        "smiles": (c, c, c), "reparsed": c,
                        "graph_formula": checks.formula(m.graph.node_labels),
                        "key": k, "perm_key": k})

    def canon(mutate=None):
        recs = copy.deepcopy(records)
        if mutate:
            mutate(recs)
        return lambda: checks.check_canon(recs)

    yield "canon clean", canon(), True
    yield "canon permutation differs", canon(lambda r: r[0].update(smiles=("CCO", "OCC", "CCO"))), False
    yield "canon reparse differs", canon(lambda r: r[1].update(reparsed="c1ccccc1")), False
    yield "canon formula differs", canon(lambda r: r[2].update(formula={"C": 2, "S": 1})), False
    yield "canon key differs", canon(lambda r: r[0].update(perm_key="x")), False
    yield "canon same SMILES, other key", canon(lambda r: r[1].update(
        smiles=(r[0]["smiles"][0],) * 3, reparsed=r[0]["smiles"][0])), False

    size = 8
    soup = {(1, 2), (2, 3), (3, 1), (3, 2), (3, 3), (6, 6), (6, 7)}
    g = grw.demos.grid_graph(size, size, soup, torus=True)
    gens = []
    for _ in range(4):
        g = grw.demos.life_step(g, assets["life_rules"])
        gens.append(set(grw.demos.alive_cells(g, size)))
    flipped = [set(s) for s in gens]
    flipped[2] ^= {(0, 0)}
    yield "life clean", lambda: checks.check_life(soup, size, gens), True
    yield "life flipped cell", lambda: checks.check_life(soup, size, flipped), False

    puzzle = gen.sudoku_puzzle(random.Random(4), 40)
    solved = grw.demos.render_sudoku(
        grw.demos.solve_sudoku(grw.demos.sudoku_graph(puzzle))).replace("\n", "")
    row = list(solved[:9])
    row[0], row[1] = row[1], row[1]
    repeated = "".join(row) + solved[9:]
    moved = solved.translate(str.maketrans("12", "21"))  # still valid, givens differ
    yield "sudoku clean", lambda: checks.check_sudoku(puzzle, solved), True
    yield "sudoku repeated digit", lambda: checks.check_sudoku(puzzle, repeated), False
    yield "sudoku given changed", lambda: checks.check_sudoku(puzzle, moved), False

    yield "ydelta clean", lambda: checks.check_ydelta("K4", 6, [6, 6, 6]), True
    yield "ydelta edge lost", lambda: checks.check_ydelta("K4", 6, [6, 5, 6]), False

    da_rule = assets["da_rule"]
    host = grw.core.disjoint_union([workloads.prepared(grw, s).graph
                                    for s in ("C=CC=CC=C", "C=CC")])[0]
    pattern, ext_to_pid = da_rule.left_pattern()
    pos = [ext_to_pid[n] for n in checks.DA_NODES]
    found = {tuple(mt[p] for p in pos) for mt in grw.match.find_monomorphisms(pattern, host)}
    results = [(tuple(res.match[p] for p in pos), res.graph.node_count, res.graph.edge_count)
               for res in grw.rules.apply_all(da_rule, host, None, True)]
    labels, edges = host.node_labels, list(host.edges())
    m0, n0, e0 = results[0]
    swapped = [((m0[1], m0[0]) + m0[2:], n0, e0)] + results[1:]
    short = [(m0, n0, e0 - 1)] + results[1:]
    yield "diels-alder clean", lambda: checks.check_diels_alder(labels, edges, found, results), True
    yield "diels-alder match swapped", lambda: checks.check_diels_alder(labels, edges, found, swapped), False
    yield "diels-alder product edge lost", lambda: checks.check_diels_alder(labels, edges, found, short), False
    yield "diels-alder match missing", lambda: checks.check_diels_alder(
        labels, edges, set(list(found)[1:]), results), False


def main() -> int:
    grw = run.import_grw()
    assets = run.load_assets(grw)
    bad = 0
    for name, thunk, should_pass in cases(grw, assets):
        problems = thunk()
        ok = (not problems) == should_pass
        bad += not ok
        verdict = "ok" if ok else "WRONG"
        print(f"{verdict:5s} {name}: {'accepted' if not problems else problems[0]}")
    print(f"{bad} wrong verdicts")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
