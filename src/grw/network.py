"""Iterative expansion of reaction networks.

Starting from seed molecules, every rule is applied to every admissible
combination of known molecules, products are perceived, sanity-checked
and canonicalized, and newly seen molecules feed the next iteration.
A rule whose left pattern has k connected components consumes k molecule
copies, one per component — intermolecular by construction; unimolecular
chemistry needs a connected pattern.  Everything is deterministic:
molecules are visited in canonical-SMILES order and rules in declaration
order.
"""

from __future__ import annotations

import itertools
import logging
import time
from collections import Counter
from dataclasses import dataclass, field, replace

from .core import GraphPool, LabeledGraph, _gml_string, connected_components, disjoint_union
from .match import Pattern, constraint_nodes, find_monomorphisms, remap_constraint
from .rules import RuleGraph, apply as apply_rule, reverse_rule
from .chem import (ChemError, EnergyModel, Molecule, RateParams, accept_product,
                   estimate_energy, reaction_rate)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Reaction:
    rule_id: str
    reactants: tuple[str, ...]  # canonical SMILES, sorted
    products: tuple[str, ...]   # canonical SMILES, sorted
    rate: float
    delta_e: float
    iteration: int

    @property
    def signature(self) -> tuple:
        return (self.rule_id, self.reactants, self.products)


@dataclass(frozen=True)
class ExpansionConfig:
    iterations: int
    max_atoms: int | None = None
    rate_params: RateParams = field(default_factory=RateParams)
    energy_model: EnergyModel | None = None

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.max_atoms is not None and self.max_atoms < 1:
            raise ValueError("max_atoms must be positive when given")


@dataclass
class ReactionNetwork:
    """Molecules keyed by canonical SMILES plus recorded reactions.

    The molecules that :func:`expand` stores share their graph storage:
    equal label tuples, ``ext_ids`` tuples and adjacency rows are one
    object across the network (see :class:`grw.core.GraphPool`).
    """
    molecules: dict[str, tuple[Molecule, int]] = field(default_factory=dict)
    reactions: list[Reaction] = field(default_factory=list)
    iterations: int = 0
    elapsed: dict[int, float] = field(default_factory=dict)

    @property
    def molecule_count(self) -> int:
        return len(self.molecules)

    @property
    def reaction_count(self) -> int:
        return len(self.reactions)

    def stats(self) -> list[tuple[int, int, int]]:
        """Cumulative (iteration, molecules, reactions) rows, iteration 0
        holding the seeds."""
        its = range(self.iterations + 1)
        mols = Counter(it for _, it in self.molecules.values())
        rxns = Counter(r.iteration for r in self.reactions)
        return list(zip(its, itertools.accumulate(mols[i] for i in its),
                        itertools.accumulate(rxns[i] for i in its)))


@dataclass
class _CompiledRule:
    rule: RuleGraph
    pattern: Pattern                    # full left pattern
    components: list[Pattern]           # one sub-pattern per component
    members: list[tuple[int, ...]]      # full-pattern node ids per component
    # One entry per product of any match: the left components it joins and
    # the number of nodes the rule creates in it; None when the rule graph
    # alone cannot tell (see _product_table).
    products: tuple[tuple[tuple[int, ...], int], ...] | None

    def product_sizes(self, counts: list[int]) -> tuple[int, ...] | None:
        """Node counts of the products, given those of the reactants."""
        if self.products is None:
            return None
        return tuple(sum(counts[j] for j in comps) + created
                     for comps, created in self.products)


def _compile_rule(rule: RuleGraph) -> _CompiledRule:
    pattern, _ = rule.left_pattern()
    comp_patterns: list[Pattern] = []
    members: list[tuple[int, ...]] = []
    for sub, mem in connected_components(pattern.graph):
        local_id = {p: i for i, p in enumerate(mem)}
        # A constraint that spans components can only be a NoEdge (an
        # EdgeLabel needs a pattern edge, the other kinds name one node).
        # Different components match into different molecules of the
        # disjoint union, so it always holds there and is left out.
        local = tuple(remap_constraint(c, local_id) for c in pattern.constraints
                      if all(p in local_id for p in constraint_nodes(c)))
        comp_patterns.append(Pattern(sub, local, pattern.wildcard))
        members.append(mem)
    ext = pattern.graph.ext_ids
    table = _product_table(rule, [[ext[p] for p in mem] for mem in members])
    return _CompiledRule(rule, pattern, comp_patterns, members, table)


def _product_table(rule: RuleGraph, components: list[list[int]]):
    """The products of every match of ``rule``, from the rule graph alone.

    ``components`` holds the rule node ids of each left component.  On a
    disjoint union of reactants (molecules are connected), one per left
    component, the rule yields the reactants and created nodes joined by
    right-side edges, provided that no reactant can split: the rule
    deletes no node, and the endpoints of every deleted edge stay
    connected through right-side edges.  Returns None when that is not
    proven.  Every match applies: the pattern forbids forming a bond twice.
    """
    if any(nd.left is not None and nd.right is None for nd in rule.nodes):
        return None
    right = reverse_rule(rule).left_pattern()[0].graph
    part = {right.ext_ids[p]: i
            for i, (_, mem) in enumerate(connected_components(right)) for p in mem}
    if any(ed.right is None and part[ed.source] != part[ed.target] for ed in rule.edges):
        return None
    # Each left component now lies in one class of right-side edges.
    groups: dict[int, list] = {}
    for j, comp in enumerate(components):
        groups.setdefault(part[comp[0]], [[], 0])[0].append(j)
    for nd in rule.nodes:
        if nd.left is None:
            groups.setdefault(part[nd.id], [[], 0])[1] += 1
    return tuple((tuple(comps), created) for comps, created in groups.values())


@dataclass(slots=True)
class _Expansion:
    """The state of one :func:`expand` call, shared by its iterations."""
    cfg: ExpansionConfig
    compiled: list[_CompiledRule]
    net: ReactionNetwork
    pool: GraphPool = field(default_factory=GraphPool)
    seen: set[tuple] = field(default_factory=set)       # reaction signatures
    energies: dict[str, float] = field(default_factory=dict)
    match_cache: dict[tuple[int, int, str], tuple] = field(default_factory=dict)
    iteration: int = 0
    discovered: list[str] = field(default_factory=list)  # new this iteration

    def store(self, canon: str, mol: Molecule) -> None:
        """Keep a new molecule, its graph shared through the pool."""
        if canon not in self.net.molecules:
            self.net.molecules[canon] = (replace(mol, graph=self.pool.share(mol.graph)),
                                         self.iteration)
            self.discovered.append(canon)

    def matches_in(self, rule_idx: int, comp_idx: int, canon: str) -> tuple:
        """Matches of one left component of a rule in one known molecule."""
        key = (rule_idx, comp_idx, canon)
        found = self.match_cache.get(key)
        if found is None:
            comp = self.compiled[rule_idx].components[comp_idx]
            host = self.net.molecules[canon][0].graph
            found = self.match_cache[key] = tuple(find_monomorphisms(comp, host))
        return found

    def energy_of(self, canon: str) -> float:
        if canon not in self.energies:
            self.energies[canon] = estimate_energy(self.net.molecules[canon][0],
                                                   self.cfg.energy_model)
        return self.energies[canon]


def expand(inputs: list[Molecule], rules: list[RuleGraph],
           cfg: ExpansionConfig) -> ReactionNetwork:
    """Expand the network for ``cfg.iterations`` rounds.

    One ``_Expansion`` holds the state of the call.  Each seed and each
    product is accepted by :func:`~grw.chem.accept_product`.  A seed it
    rejects raises its :class:`~grw.chem.ChemError`; a product it rejects
    is reported through the module logger and its reaction is discarded,
    and expansion never aborts on them.  Every molecule the network stores
    (seeds and new products) goes through the state's one
    :class:`~grw.core.GraphPool`, so stored graphs share equal rows and
    tuples; discarded and duplicate products never reach it.

    A match where a bond the rule forms exists is no match of its
    pattern, so no rule aborts the run.

    Under ``cfg.max_atoms``, a reaction with a product over the cap is
    discarded.  For a rule that deletes no node and keeps the endpoints
    of every deleted edge connected through right-side edges, the
    product sizes follow from the reactant sizes alone, and such a
    reaction is dropped before the rule is applied (the formose rules
    qualify except the retro-aldol, which splits a molecule).  Other
    rules build their products and then test them.  A dropped reaction
    therefore logs no kekulization or sanity warning for its other
    products.
    """
    x = _Expansion(cfg, [_compile_rule(r) for r in rules],
                   ReactionNetwork(iterations=cfg.iterations))
    for m in inputs:
        x.store(*accept_product(m))

    molecules, cap, matches_in = x.net.molecules, cfg.max_atoms, x.matches_in
    for i in range(1, cfg.iterations + 1):
        t0 = time.monotonic()
        known = sorted(molecules)
        new_set = set(x.discovered)
        x.iteration, x.discovered = i, []

        for rule_idx, cr in enumerate(x.compiled):
            k = len(cr.components)
            for combo in itertools.product(known, repeat=k):
                if not any(c in new_set for c in combo):
                    continue
                per_comp = [matches_in(rule_idx, j, combo[j]) for j in range(k)]
                if not all(per_comp):
                    continue
                graphs = [molecules[c][0].graph for c in combo]
                counts = [g.node_count for g in graphs]
                sizes = cr.product_sizes(counts)
                # A product sized over the cap: every match is dropped unbuilt.
                union = None if sizes is not None and cap is not None and max(sizes) > cap \
                    else disjoint_union(graphs)[0]
                offsets = list(itertools.accumulate(counts[:-1], initial=0))
                for picks in itertools.product(*per_comp):
                    match = [0] * cr.pattern.graph.node_count
                    for j in range(k):
                        for local_idx, pat_node in enumerate(cr.members[j]):
                            match[pat_node] = picks[j][local_idx] + offsets[j]
                    _process_match(x, cr, union, tuple(match), combo)

        elapsed = time.monotonic() - t0
        x.net.elapsed[i] = elapsed
        log.info("iter %d: molecules=%d reactions=%d elapsed=%.3f",
                 i, x.net.molecule_count, x.net.reaction_count, elapsed)

    return x.net


def _process_match(x: _Expansion, cr: _CompiledRule, union: LabeledGraph | None,
                   match: tuple, combo: tuple[str, ...]) -> None:
    """Apply one match and record its reaction, or discard it.

    ``union`` is None when the rule's product table puts a product over
    the atom cap; the match is then dropped before anything is built.
    """
    if union is None:
        return
    cap = x.cfg.max_atoms
    product_mols: list[tuple[str, Molecule]] = []
    for comp, _ in connected_components(apply_rule(cr.rule, union, match).graph):
        if cap is not None and comp.node_count > cap:
            return
        try:
            product_mols.append(accept_product(Molecule(comp, {}, filled=True)))
        except ChemError as exc:
            log.warning("rule %s: discarding product (%s)", cr.rule.rule_id, exc)
            return

    reactants = tuple(sorted(combo))
    products = tuple(sorted(c for c, _ in product_mols))
    signature = (cr.rule.rule_id, reactants, products)
    if signature in x.seen:
        return
    x.seen.add(signature)

    for canon, mol in product_mols:
        x.store(canon, mol)

    if x.cfg.energy_model is not None:
        delta_e = sum(map(x.energy_of, products)) - sum(map(x.energy_of, reactants))
        rate = reaction_rate(delta_e, x.cfg.rate_params)
    else:
        delta_e, rate = 0.0, 1.0
    x.net.reactions.append(Reaction(cr.rule.rule_id, reactants, products,
                                    rate, delta_e, x.iteration))


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(net: ReactionNetwork) -> str:
    """DOT digraph: box nodes for molecules, point nodes for reactions,
    arcs reactant → reaction → product (repeated per multiplicity)."""
    if not net.molecules and not net.reactions:
        return "digraph RN {\n}"
    lines = ["digraph RN {"]
    canons = sorted(net.molecules)
    index = {c: f"m{i}" for i, c in enumerate(canons)}
    lines.append("  node [shape=box];")
    for c in canons:
        lines.append(f"  {index[c]} [label={_dot_quote(c)}];")
    if net.reactions:
        lines.append("  node [shape=point];")
        for r_i, rxn in enumerate(net.reactions):
            label = f"{rxn.rule_id} rate={rxn.rate:.6g}"
            lines.append(f"  r{r_i} [xlabel={_dot_quote(label)}];")
            for c in rxn.reactants:
                lines.append(f"  {index[c]} -> r{r_i};")
            for c in rxn.products:
                lines.append(f"  r{r_i} -> {index[c]};")
    lines.append("}")
    return "\n".join(lines)


def to_gml(net: ReactionNetwork) -> str:
    """GML dump of the hypergraph: molecule and reaction nodes, directed
    edges with empty labels mirroring the DOT arcs.  A rule id that a GML
    string cannot hold raises :class:`ValueError`."""
    for rule_id in dict.fromkeys(rxn.rule_id for rxn in net.reactions):
        _gml_string(rule_id, "a reaction node")
    lines = ["graph [", "  directed 1"]
    canons = sorted(net.molecules)
    index = {c: i for i, c in enumerate(canons)}
    for c in canons:
        lines.append(f'  node [ id {index[c]} label "{c}" ]')
    base = len(canons)
    for r_i, rxn in enumerate(net.reactions):
        rid = base + r_i
        lines.append(f'  node [ id {rid} label "{rxn.rule_id}" ]')
        for c in rxn.reactants:
            lines.append(f'  edge [ source {index[c]} target {rid} label "" ]')
        for c in rxn.products:
            lines.append(f'  edge [ source {rid} target {index[c]} label "" ]')
    lines.append("]\n")
    return "\n".join(lines)
