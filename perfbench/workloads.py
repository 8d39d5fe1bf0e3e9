"""The four workloads.  Each one generates its inputs from the seed (not
timed), runs one round of fixed work per :meth:`round` call, and turns a
round's outputs into plain data for ``checks.py``.

All calls into ``grw`` go through module attributes (``network.expand``,
``chem.canonical_smiles``) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import random

import checks
import gen

FORMOSE_SEEDS = {"glycolaldehyde": gen.make_mol("OCCO", [(0, 1, 1), (1, 2, 1), (2, 3, 2)]),
                 "formaldehyde": gen.make_mol("CO", [(0, 1, 2)])}
# Cumulative molecules and reactions per iteration, as published in the
# project README and its acceptance tests (iteration 6: 10572 molecules).
FORMOSE_GROWTH = ([2, 3, 5, 9, 37, 302, 10572], [0, 1, 4, 10, 44, 371, 11239])
PERM_SAMPLE = 100


def permuted_graph(grw, g, rng: random.Random):
    perm = list(range(g.node_count))
    rng.shuffle(perm)
    labels = [""] * g.node_count
    for old, new in enumerate(perm):
        labels[new] = g.label(old)
    return grw.core.LabeledGraph.from_parts(
        labels, [(perm[u], perm[v], lbl) for u, v, lbl in g.edges()])


def prepared(grw, smiles: str):
    (m,) = grw.chem.parse_smiles(smiles)
    return grw.chem.perceive_aromaticity(grw.chem.fill_hydrogens(m))


class Formose:
    """Closed loop of one whole expansion per round; an item is one rule
    application processed inside ``expand`` (``network._process_match``)."""

    name = "formose"
    iterations = 6
    max_atoms = None
    with_energy = True
    growth = FORMOSE_GROWTH
    tail_pct = 96

    def __init__(self, grw, assets, seed: int):
        self.grw = grw
        self.rng = random.Random(seed)
        names = sorted(FORMOSE_SEEDS)
        self.rng.shuffle(names)
        self.seeds = [prepared(grw, gen.write_smiles(FORMOSE_SEEDS[n], self.rng)) for n in names]
        self.rules = assets["formose_rules"]
        self.cfg = grw.network.ExpansionConfig(
            iterations=self.iterations, max_atoms=self.max_atoms,
            energy_model=assets["energy_model"] if self.with_energy else None)

    def round(self, timer):
        network = self.grw.network
        inner = network._process_match

        def item(*args):
            return timer.item(inner, *args)

        network._process_match = item
        try:
            net = network.expand(self.seeds, self.rules, self.cfg)
        finally:
            network._process_match = inner
        return net, network.to_dot(net), network.to_gml(net)

    def signature(self, out):
        _, dot, gml = out
        return hashlib.sha256((dot + gml).encode()).hexdigest()

    def counts(self, out) -> tuple[int, int]:
        net = out[0]
        return net.reaction_count, net.molecule_count - len(self.seeds)

    def check(self, out) -> list[str]:
        net, dot, gml = out
        molecules = {k: (m.graph.node_labels, list(m.graph.edges()), it)
                     for k, (m, it) in net.molecules.items()}
        reactions = [(r.rule_id, r.reactants, r.products, r.rate, r.delta_e, r.iteration)
                     for r in net.reactions]
        rng = random.Random(self.rng.random())
        sample = rng.sample(sorted(net.molecules), min(PERM_SAMPLE, len(net.molecules)))
        Molecule = self.grw.chem.Molecule
        pairs = [(k, self.grw.chem.canonical_smiles(
            Molecule(permuted_graph(self.grw, net.molecules[k][0].graph, rng), {}, filled=True)))
            for k in sample]
        return checks.check_network(molecules, reactions, dot, gml, pairs,
                                    self.with_energy, self.max_atoms, self.growth)


class FormoseCap(Formose):
    """The same chemistry without energies and with a 32-atom cap, taken
    to iteration 8: most applications build a product only to discard it."""

    name = "formose-cap"
    iterations = 8
    max_atoms = 32
    with_energy = False
    growth = None
    tail_pct = 99


class Canon:
    """Closed loop over seeded SMILES items; each runs parse → fill →
    perceive, canonical SMILES of the molecule and of two permutations,
    and the canonical key of the explicit-H graph."""

    name = "canon"
    tail_pct = 98
    ordinary = 480
    symmetric_repeats = 6
    max_h_symmetry = 72
    cliff_deadline_ref = 50  # reference slices, about 0.5 s

    def __init__(self, grw, assets, seed: int):
        self.grw = grw
        rng = random.Random(seed)
        specs = []
        for i in range(self.ordinary):
            m = gen.random_ordinary(rng, self.max_h_symmetry)
            specs.append((f"ordinary-{i}", gen.write_smiles(m, rng), m.formula(), False))
        for _ in range(self.symmetric_repeats):
            for name, m in gen.symmetric_tier().items():
                specs.append((name, gen.write_smiles(m, rng), m.formula(), False))
        cliff_rng = random.Random(0)
        items = []
        for name, smiles, formula, cliff in specs:
            items.append(self._item(name, smiles, formula, cliff, rng))
        for name, smiles in gen.CLIFF_TIER.items():
            items.append(self._item(name, smiles, gen.CLIFF_FORMULAS[name], True, cliff_rng))
        rng.shuffle(items)
        self.items = items

    def _item(self, name, smiles, formula, cliff, rng):
        m = prepared(self.grw, smiles)
        Molecule = self.grw.chem.Molecule
        perms = [Molecule(permuted_graph(self.grw, m.graph, rng), {}, filled=True)
                 for _ in range(3)]
        return {"name": name, "smiles": smiles, "formula": formula, "cliff": cliff,
                "perms": perms}

    def _run(self, item):
        chem, match = self.grw.chem, self.grw.match
        (m,) = chem.parse_smiles(item["smiles"])
        m = chem.perceive_aromaticity(chem.fill_hydrogens(m))
        p1, p2, _ = item["perms"]
        strings = (chem.canonical_smiles(m), chem.canonical_smiles(p1),
                   chem.canonical_smiles(p2))
        return m, strings, match.canonical_key(m.graph)

    def round(self, timer):
        out = []
        for item in self.items:
            deadline = self.cliff_deadline_ref if item["cliff"] else None
            out.append(timer.item(self._run, item, deadline=deadline))
        return out

    def signature(self, out):
        return tuple(None if r is None else (r[1][0], r[2]) for r in out)

    def counts(self, out) -> tuple[int, int]:
        return 0, 0

    def check(self, out) -> list[str]:
        chem, match = self.grw.chem, self.grw.match
        records = []
        for item, r in zip(self.items, out):
            if r is None:
                records.append(None)
                continue
            m, strings, key = r
            records.append({
                "name": item["name"], "formula": item["formula"], "smiles": strings,
                "reparsed": chem.canonical_smiles(prepared(self.grw, strings[0])),
                "graph_formula": checks.formula(m.graph.node_labels),
                "key": key, "perm_key": match.canonical_key(item["perms"][2].graph)})
        problems = checks.check_canon(records)
        failed = sorted(item["name"] for item, r in zip(self.items, out) if r is None)
        unexpected = [n for n in failed if n not in gen.CLIFF_TIER]
        if unexpected:
            problems.append(f"non-cliff items failed: {unexpected}")
        return problems


class Rewrite:
    """Closed loop over generic rewriting items without chemistry: Game
    of Life generations, Sudoku solves, Y-Δ breadth-first exploration
    keyed by ``canonical_key``, and Diels–Alder ``apply_all(dedup=True)``."""

    name = "rewrite"
    tail_pct = 95
    life_size = 32
    life_generations = 24
    sudokus = 4
    sudoku_blanks = 36
    ydelta_depth = 2
    da_hosts = 3

    def __init__(self, grw, assets, seed: int):
        self.grw = grw
        rng = random.Random(seed)
        demos, core = grw.demos, grw.core
        self.life_rules = assets["life_rules"]
        self.ydelta_rules = assets["ydelta_rules"]
        self.da_rule = assets["da_rule"]
        _, ext_to_pid = self.da_rule.left_pattern()
        self.da_positions = [ext_to_pid[n] for n in checks.DA_NODES]
        self.soup = gen.life_soup(rng, self.life_size)
        self.life_start = demos.grid_graph(self.life_size, self.life_size, self.soup, torus=True)
        self.puzzles = [gen.sudoku_puzzle(rng, self.sudoku_blanks) for _ in range(self.sudokus)]
        self.sudoku_graphs = [demos.sudoku_graph(p) for p in self.puzzles]
        self.ydelta = []
        for name, (n, edges) in gen.ydelta_graphs().items():
            g = core.LabeledGraph.from_parts(
                ["*"] * n, [(a, b, "*") for a, b in gen.permute_edges(rng, n, edges)])
            self.ydelta.append((name, g))
        self.da = []
        for _ in range(self.da_hosts):
            graphs = [prepared(grw, gen.write_smiles(m, rng)).graph for m in gen.diels_alder_host()]
            self.da.append(core.disjoint_union(graphs)[0])

    def round(self, timer):
        demos, rules = self.grw.demos, self.grw.rules
        life = []
        g = self.life_start
        for _ in range(self.life_generations):
            g = timer.item(demos.life_step, g, self.life_rules)
            life.append(g)
        sudoku = [timer.item(demos.solve_sudoku, sg) for sg in self.sudoku_graphs]
        ydelta = [timer.item(self._explore, g) for _, g in self.ydelta]
        da = [timer.item(rules.apply_all, self.da_rule, host, None, True) for host in self.da]
        return life, sudoku, ydelta, da

    def _explore(self, g):
        return self.grw.rules.explore([g], self.ydelta_rules, "bfs", self.ydelta_depth,
                                      key=self.grw.match.canonical_key)

    def _plain(self, out):
        life, sudoku, ydelta, da = out
        demos = self.grw.demos
        return (
            [tuple(sorted(demos.alive_cells(g, self.life_size))) for g in life],
            [None if s is None else demos.render_sudoku(s).replace("\n", "") for s in sudoku],
            [sorted((k, v.edge_count) for k, v in r.visited.items()) for r in ydelta],
            [[(self._by_rule_node(res.match), res.graph.node_count, res.graph.edge_count)
              for res in results] for results in da],
        )

    def _by_rule_node(self, match) -> tuple[int, ...]:
        return tuple(match[p] for p in self.da_positions)

    def signature(self, out):
        life, sudoku, ydelta, da = self._plain(out)
        return repr((life, sudoku, ydelta, da))

    def counts(self, out) -> tuple[int, int]:
        return 0, 0

    def check(self, out) -> list[str]:
        life, sudoku, ydelta, da = self._plain(out)
        problems = checks.check_life(self.soup, self.life_size, [set(g) for g in life])
        for puzzle, solution in zip(self.puzzles, sudoku):
            problems += checks.check_sudoku(puzzle, solution)
        for (name, g), visited in zip(self.ydelta, ydelta):
            problems += checks.check_ydelta(name, g.edge_count, [e for _, e in visited])
        pattern, _ = self.da_rule.left_pattern()
        for host, results in zip(self.da, da):
            found = {self._by_rule_node(mt)
                     for mt in self.grw.match.find_monomorphisms(pattern, host)}
            problems += checks.check_diels_alder(host.node_labels, list(host.edges()),
                                                 found, results)
        return problems


WORKLOADS = {w.name: w for w in (Formose, FormoseCap, Canon, Rewrite)}
