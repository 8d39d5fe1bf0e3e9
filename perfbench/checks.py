"""Output checks that do not trust the program.

Each checker takes plain data (labels, edge lists, strings, numbers)
extracted from the program's outputs and returns a list of problems; an
empty list means the output passed.  The expected values come from direct
computation here: atom counting, the fragment arithmetic of the demo
energy model, a Game of Life neighbour count, Sudoku constraints and a
backtracking Diels–Alder enumerator.  ``selftest.py`` feeds every checker
a corrupted output to show that none of them is vacuous.
"""

from __future__ import annotations

import math
import re

R_KCAL = 1.987e-3   # RateParams defaults: kcal/(mol·K) and kelvin
T_K = 298.15


def element_of(label: str) -> str:
    """Element symbol of an atom label such as ``C``, ``c``, ``O-`` or
    ``C:1``."""
    m = re.match(r"[A-Za-z][a-z]?", label)
    sym = m.group(0) if m else label
    return sym[0].upper() + sym[1:] if sym.islower() else sym


def formula(labels) -> dict[str, int]:
    counts: dict[str, int] = {}
    for lbl in labels:
        el = element_of(lbl)
        counts[el] = counts.get(el, 0) + 1
    return counts


def demo_energy(labels, edges) -> float:
    """The demo model counted from the edge list:
    −5·#(C=O) − 1.5·#(C–O) + 2·#(C=C)."""
    co_double = co_single = cc_double = 0
    for u, v, bond in edges:
        pair = {element_of(labels[u]), element_of(labels[v])}
        if pair == {"C", "O"}:
            if bond == "=":
                co_double += 1
            elif bond == "-":
                co_single += 1
        elif pair == {"C"} and bond == "=":
            cc_double += 1
    return -5.0 * co_double - 1.5 * co_single + 2.0 * cc_double


def check_network(molecules: dict, reactions: list, dot: str, gml: str,
                  perm_pairs: list, energy: bool, max_atoms: int | None,
                  expected: tuple[list[int], list[int]] | None = None) -> list[str]:
    """``molecules``: canonical SMILES → (labels, edges, iteration).
    ``reactions``: (rule, reactants, products, rate, delta_e, iteration).
    ``perm_pairs``: (key, canonical SMILES of a re-permuted copy)."""
    problems: list[str] = []
    formulas = {}
    for key, (labels, edges, _) in molecules.items():
        f = formula(labels)
        formulas[key] = f
        n = f.get("C", 0)
        if n < 1 or f != {"C": n, "H": 2 * n, "O": n}:
            problems.append(f"molecule {key}: atoms {f} are not CnH2nOn")
        if max_atoms is not None and len(labels) > max_atoms:
            problems.append(f"molecule {key}: {len(labels)} atoms over the cap {max_atoms}")
    energies = {k: demo_energy(lbls, edges) for k, (lbls, edges, _) in molecules.items()}
    arcs = 0
    for rule, reactants, products, rate, delta_e, _ in reactions:
        arcs += len(reactants) + len(products)
        missing = [c for c in reactants + products if c not in molecules]
        if missing:
            problems.append(f"{rule}: unknown molecules {missing}")
            continue
        left: dict[str, int] = {}
        right: dict[str, int] = {}
        for side, names in ((left, reactants), (right, products)):
            for c in names:
                for el, k in formulas[c].items():
                    side[el] = side.get(el, 0) + k
        if left != right:
            problems.append(f"{rule} {reactants}->{products}: atoms not conserved")
        if energy:
            want = sum(energies[c] for c in products) - sum(energies[c] for c in reactants)
            if abs(delta_e - want) > 1e-9:
                problems.append(f"{rule} {reactants}->{products}: dE {delta_e} != {want}")
            want_rate = math.exp(-delta_e / (R_KCAL * T_K))
            if abs(rate - want_rate) > 1e-12 * max(1.0, abs(want_rate)):
                problems.append(f"{rule}: rate {rate} != exp(-dE/RT) {want_rate}")
        elif delta_e != 0.0 or rate != 1.0:
            problems.append(f"{rule}: dE {delta_e} / rate {rate} without an energy model")
    for key, perm_canon in perm_pairs:
        if key != perm_canon:
            problems.append(f"molecule {key}: a re-permuted copy canonicalizes to {perm_canon}")
    n_mol, n_rxn = len(molecules), len(reactions)
    dot_lines = dot.splitlines()
    dot_mols = sum(1 for ln in dot_lines if re.match(r"\s*m\d+ \[label=", ln))
    dot_rxns = sum(1 for ln in dot_lines if re.match(r"\s*r\d+ \[xlabel=", ln))
    dot_arcs = sum(1 for ln in dot_lines if " -> " in ln)
    if (dot_mols, dot_rxns, dot_arcs) != (n_mol, n_rxn, arcs):
        problems.append(f"DOT has {dot_mols} molecules, {dot_rxns} reactions, {dot_arcs} arcs;"
                        f" expected {n_mol}, {n_rxn}, {arcs}")
    gml_nodes = len(re.findall(r"^\s*node \[", gml, re.M))
    gml_edges = len(re.findall(r"^\s*edge \[", gml, re.M))
    if (gml_nodes, gml_edges) != (n_mol + n_rxn, arcs):
        problems.append(f"GML has {gml_nodes} nodes, {gml_edges} edges;"
                        f" expected {n_mol + n_rxn}, {arcs}")
    if expected is not None:
        mols_per_iter, rxns_per_iter = expected
        got_m = [sum(1 for *_, it in molecules.values() if it <= i)
                 for i in range(len(mols_per_iter))]
        got_r = [sum(1 for r in reactions if r[5] <= i) for i in range(len(rxns_per_iter))]
        if got_m != mols_per_iter or got_r != rxns_per_iter:
            problems.append(f"growth {got_m} / {got_r} differs from {mols_per_iter} / {rxns_per_iter}")
    return problems


def check_canon(items: list[dict]) -> list[str]:
    """Each item: name, formula (expected), smiles (three canonical
    strings), reparsed, graph_formula, key, perm_key; failed items are
    None and are skipped."""
    problems: list[str] = []
    by_smiles: dict[str, set[str]] = {}
    by_key: dict[str, set[str]] = {}
    for it in items:
        if it is None:
            continue
        name = it["name"]
        c0, c1, c2 = it["smiles"]
        if not (c0 == c1 == c2):
            problems.append(f"{name}: permutations give {c0} / {c1} / {c2}")
        if it["reparsed"] != c0:
            problems.append(f"{name}: {c0} re-parses to {it['reparsed']}")
        if it["graph_formula"] != it["formula"]:
            problems.append(f"{name}: formula {it['graph_formula']} != {it['formula']}")
        if it["key"] != it["perm_key"]:
            problems.append(f"{name}: canonical_key differs under permutation")
        by_smiles.setdefault(c0, set()).add(it["key"])
        by_key.setdefault(it["key"], set()).add(c0)
    for s, keys in by_smiles.items():
        if len(keys) > 1:
            problems.append(f"SMILES {s} maps to {len(keys)} different keys")
    for k, smiles in by_key.items():
        if len(smiles) > 1:
            problems.append(f"one key maps to SMILES {sorted(smiles)}")
    return problems


def check_life(soup: set, size: int, generations: list[set]) -> list[str]:
    problems = []
    alive = set(soup)
    for i, got in enumerate(generations, start=1):
        alive = life_step(alive, size)
        if got != alive:
            problems.append(f"Life generation {i}: {len(got ^ alive)} cells differ")
            break
    return problems


def life_step(alive: set, size: int) -> set:
    counts: dict[tuple[int, int], int] = {}
    for r, c in alive:
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr or dc:
                    cell = ((r + dr) % size, (c + dc) % size)
                    counts[cell] = counts.get(cell, 0) + 1
    return {cell for cell, k in counts.items() if k == 3 or (k == 2 and cell in alive)}


def check_sudoku(puzzle: str, solution: str | None) -> list[str]:
    if solution is None or len(solution) != 81:
        return [f"Sudoku {puzzle}: no 81-cell solution"]
    problems = []
    full = set("123456789")
    units = ([[r * 9 + c for c in range(9)] for r in range(9)]
             + [[r * 9 + c for r in range(9)] for c in range(9)]
             + [[(br + r) * 9 + bc + c for r in range(3) for c in range(3)]
                for br in (0, 3, 6) for bc in (0, 3, 6)])
    for unit in units:
        if {solution[i] for i in unit} != full:
            problems.append(f"Sudoku {puzzle}: a unit is not 1-9 once each")
            break
    if any(p != "0" and p != s for p, s in zip(puzzle, solution)):
        problems.append(f"Sudoku {puzzle}: a given was changed")
    return problems


def check_ydelta(name: str, start_edges: int, visited_edges: list[int]) -> list[str]:
    if not visited_edges:
        return [f"Y-Δ {name}: nothing visited"]
    bad = [e for e in visited_edges if e != start_edges]
    return [f"Y-Δ {name}: states with {bad[:3]} edges, start has {start_edges}"] if bad else []


# Diels–Alder left side as drawn in the rule file, plus a forbidden host
# edge for each bond the rule creates (4-5 and 6-1).
DA_NODES = (1, 2, 3, 4, 5, 6)
DA_EDGES = ((1, 2, "="), (2, 3, "-"), (3, 4, "="), (5, 6, "="))
DA_NO_EDGE = ((1, 5), (4, 6), (4, 5), (1, 6))


def da_enumerate(labels, edges) -> set[tuple[int, ...]]:
    """Every injective map of the Diels–Alder left side into the host, as
    host-node tuples in rule-node order 1..6, by plain backtracking."""
    bond = {}
    for u, v, lbl in edges:
        bond[(u, v)] = bond[(v, u)] = lbl
    carbons = [v for v, lbl in enumerate(labels) if element_of(lbl) == "C"]
    found = set()

    def ok(assign: dict) -> bool:
        for a, b, lbl in DA_EDGES:
            if a in assign and b in assign and bond.get((assign[a], assign[b])) != lbl:
                return False
        for a, b in DA_NO_EDGE:
            if a in assign and b in assign and (assign[a], assign[b]) in bond:
                return False
        return True

    def extend(assign: dict, i: int) -> None:
        if i == len(DA_NODES):
            found.add(tuple(assign[n] for n in DA_NODES))
            return
        for h in carbons:
            if h in assign.values():
                continue
            assign[DA_NODES[i]] = h
            if ok(assign):
                extend(assign, i + 1)
            del assign[DA_NODES[i]]

    extend({}, 0)
    return found


def check_diels_alder(labels, edges, all_matches: set, results: list) -> list[str]:
    """``all_matches``: the program's matches; ``results``: (match,
    product node count, product edge count) per deduplicated product."""
    problems = []
    bond = {}
    for u, v, lbl in edges:
        bond[(u, v)] = bond[(v, u)] = lbl
    want = da_enumerate(labels, edges)
    if all_matches != want:
        problems.append(f"Diels-Alder: {len(all_matches)} matches, enumerator finds {len(want)}")
    if not results:
        problems.append("Diels-Alder: no products")
    for match, n_nodes, n_edges in results:
        assign = dict(zip(DA_NODES, match))
        if len(set(match)) != 6 or any(element_of(labels[h]) != "C" for h in match):
            problems.append(f"Diels-Alder match {match}: not six distinct carbons")
        elif any(bond.get((assign[a], assign[b])) != lbl for a, b, lbl in DA_EDGES):
            problems.append(f"Diels-Alder match {match}: host bonds do not fit")
        if (n_nodes, n_edges) != (len(labels), len(edges) + 2):
            problems.append(f"Diels-Alder product has {n_nodes} nodes / {n_edges} edges,"
                            f" host {len(labels)} / {len(edges)}")
    return problems
