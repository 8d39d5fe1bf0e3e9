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

from .core import GraphPool, LabeledGraph, connected_components, disjoint_union
from .match import Pattern, constraint_nodes, find_monomorphisms, remap_constraint, satisfies
from .rules import RuleGraph, apply as apply_rule
from .chem.energy import EnergyModel, RateParams, estimate_energy, reaction_rate
from .chem.molecule import Molecule, sanity_check
from .chem.aromatic import KekulizationError, perceive_aromaticity
from .chem.smiles import canonical_smiles

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
    dedup_products: bool = True

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
    cross: tuple                        # constraints spanning components


def _compile_rule(rule: RuleGraph) -> _CompiledRule:
    pattern, _ = rule.left_pattern()
    comps = connected_components(pattern.graph)
    comp_patterns: list[Pattern] = []
    members: list[tuple[int, ...]] = []
    claimed: list = []
    for sub, mem in comps:
        mem_set = set(mem)
        local = []
        for c in pattern.constraints:
            if set(constraint_nodes(c)) <= mem_set:
                local.append(remap_constraint(c, {p: i for i, p in enumerate(mem)}))
                claimed.append(c)
        comp_patterns.append(Pattern(sub, tuple(local), pattern.wildcard))
        members.append(mem)
    cross = tuple(c for c in pattern.constraints if not _in_list(c, claimed))
    return _CompiledRule(rule, pattern, comp_patterns, members, cross)


def _in_list(c, seen: list) -> bool:
    return any(c is s for s in seen)


def expand(inputs: list[Molecule], rules: list[RuleGraph],
           cfg: ExpansionConfig) -> ReactionNetwork:
    """Expand the network for ``cfg.iterations`` rounds.

    Products failing sanity checks (or kekulization) are reported through
    the module logger and their reaction is discarded; expansion never
    aborts on them.  Every molecule the network stores (seeds and new
    products) goes through one :class:`~grw.core.GraphPool` per call, so
    stored graphs share equal rows and tuples; discarded and duplicate
    products never reach it.
    """
    net = ReactionNetwork(iterations=cfg.iterations)
    pool = GraphPool()
    for m in inputs:
        mol = perceive_aromaticity(m)
        canon = canonical_smiles(mol)
        if canon not in net.molecules:
            net.molecules[canon] = (replace(mol, graph=pool.share(mol.graph)), 0)

    compiled = [_compile_rule(r) for r in rules]
    seen_reactions: set[tuple] = set()
    energies: dict[str, float] = {}
    match_cache: dict[tuple[int, int, str], tuple] = {}

    def energy_of(canon: str) -> float:
        if canon not in energies:
            energies[canon] = estimate_energy(net.molecules[canon][0],
                                              cfg.energy_model)
        return energies[canon]

    def matches_in(rule_idx: int, comp_idx: int, canon: str) -> tuple:
        key = (rule_idx, comp_idx, canon)
        if key not in match_cache:
            comp = compiled[rule_idx].components[comp_idx]
            host = net.molecules[canon][0].graph
            match_cache[key] = tuple(find_monomorphisms(comp, host))
        return match_cache[key]

    new_canons = sorted(net.molecules)
    for i in range(1, cfg.iterations + 1):
        t0 = time.monotonic()
        known = sorted(net.molecules)
        new_set = set(new_canons)
        discovered: list[str] = []

        for rule_idx, cr in enumerate(compiled):
            k = len(cr.components)
            for combo in itertools.product(known, repeat=k):
                if not any(c in new_set for c in combo):
                    continue
                per_comp = [matches_in(rule_idx, j, combo[j]) for j in range(k)]
                if not all(per_comp):
                    continue
                union, _ = disjoint_union(
                    [net.molecules[c][0].graph for c in combo])
                offsets = []
                off = 0
                for c in combo:
                    offsets.append(off)
                    off += net.molecules[c][0].graph.node_count
                for picks in itertools.product(*per_comp):
                    match = [0] * cr.pattern.graph.node_count
                    for j in range(k):
                        for local_idx, pat_node in enumerate(cr.members[j]):
                            match[pat_node] = picks[j][local_idx] + offsets[j]
                    match = tuple(match)
                    if cr.cross and not all(
                            satisfies(c, union, match, cr.pattern.wildcard)
                            for c in cr.cross):
                        continue
                    _process_match(cr, union, match, combo, i, cfg, net,
                                   seen_reactions, energy_of, discovered, pool)

        new_canons = sorted(set(discovered))
        elapsed = time.monotonic() - t0
        net.elapsed[i] = elapsed
        log.info("iter %d: molecules=%d reactions=%d elapsed=%.3f",
                 i, net.molecule_count, net.reaction_count, elapsed)

    return net


def _process_match(cr: _CompiledRule, union: LabeledGraph, match: tuple,
                   combo: tuple[str, ...], iteration: int,
                   cfg: ExpansionConfig, net: ReactionNetwork,
                   seen: set, energy_of, discovered: list[str],
                   pool: GraphPool) -> None:
    result = apply_rule(cr.rule, union, match)
    product_mols: list[tuple[str, Molecule]] = []
    for comp, _ in connected_components(result.graph):
        mol = Molecule(comp, {}, filled=True)
        if cfg.max_atoms is not None and mol.atom_count > cfg.max_atoms:
            return
        try:
            mol = perceive_aromaticity(mol)
        except KekulizationError as exc:
            log.warning("rule %s: discarding product (%s)", cr.rule.rule_id, exc)
            return
        issues = sanity_check(mol)
        if issues:
            log.warning("rule %s: discarding product (%s)",
                        cr.rule.rule_id, "; ".join(v.message for v in issues))
            return
        product_mols.append((canonical_smiles(mol), mol))

    reactants = tuple(sorted(combo))
    products = tuple(sorted(c for c, _ in product_mols))
    signature = (cr.rule.rule_id, reactants, products)
    if cfg.dedup_products and signature in seen:
        return
    seen.add(signature)

    for canon, mol in product_mols:
        if canon not in net.molecules:
            net.molecules[canon] = (replace(mol, graph=pool.share(mol.graph)),
                                    iteration)
            discovered.append(canon)

    if cfg.energy_model is not None:
        delta_e = sum(energy_of(c) for c in products) \
            - sum(energy_of(c) for c in reactants)
        rate = reaction_rate(delta_e, cfg.rate_params)
    else:
        delta_e, rate = 0.0, 1.0
    net.reactions.append(Reaction(cr.rule.rule_id, reactants, products,
                                  rate, delta_e, iteration))


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
    edges with empty labels mirroring the DOT arcs."""
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
    lines.append("]")
    return "\n".join(lines) + "\n"
