"""Chemical validation of rewrite rules.

A chemically sound rule conserves atoms (nodes never appear or vanish,
elements never transmute) and keeps every atom's bond-order change
compatible with its allowed valences.  :func:`check_chem_rule` reports
violations of both kinds and returns a copy of the rule with its
wildcard inferred.  Every rule's own pattern forbids forming a bond twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rules import RuleGraph
from .atoms import BOND_ORDERS, BOND_SYMBOLS, allowed_valences, parse_atom_label

_ORDER2 = {s: int(2 * o) for s, o in BOND_ORDERS.items()}  # twice the order, exact ints


@dataclass(frozen=True)
class RuleViolation:
    kind: str        # "mass", "valence" or "label"
    where: object    # node id or (source, target) pair
    message: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.message}"


def check_chem_rule(rule: RuleGraph) -> tuple[list[RuleViolation], RuleGraph]:
    """Validate a rule chemically; return (violations, normalized rule).

    The normalized rule has a wildcard inferred from literal ``*`` labels
    when none was declared.
    """
    violations: list[RuleViolation] = []

    wildcard = rule.wildcard
    if wildcard is None:
        used = {n.left for n in rule.nodes} | {n.right for n in rule.nodes} \
            | {e.left for e in rule.edges} | {e.right for e in rule.edges}
        if "*" in used:
            wildcard = "*"

    def is_wild(label: str | None) -> bool:
        return label is not None and wildcard is not None and label == wildcard

    atoms: dict[int, tuple] = {}
    for n in rule.nodes:
        if n.left is None or n.right is None:
            side = "left" if n.right is None else "right"
            violations.append(RuleViolation(
                "mass", n.id,
                f"node {n.id} exists only on the {side} side; atoms cannot "
                "appear or vanish"))
        left_atom = right_atom = None
        for side_label, is_left in ((n.left, True), (n.right, False)):
            if side_label is None or is_wild(side_label):
                continue
            atom = parse_atom_label(side_label)
            if atom is None:
                violations.append(RuleViolation(
                    "label", n.id, f"node label {side_label!r} is not chemical"))
            elif is_left:
                left_atom = atom
            else:
                right_atom = atom
        if left_atom and right_atom and left_atom.element != right_atom.element:
            violations.append(RuleViolation(
                "mass", n.id,
                f"node {n.id} changes element {left_atom.element} → "
                f"{right_atom.element}"))
        atoms[n.id] = (left_atom, right_atom)

    # A wildcard bond on one side only, or relabelled, changes its ends by
    # an unknown order; one on both sides changes nothing.
    wild_edge_nodes: set[int] = set()
    for e in rule.edges:
        if is_wild(e.left) != is_wild(e.right):
            wild_edge_nodes.update((e.source, e.target))
        for side_label in (e.left, e.right):
            if side_label is not None and not is_wild(side_label) \
                    and side_label not in BOND_SYMBOLS:
                violations.append(RuleViolation(
                    "label", (e.source, e.target),
                    f"edge label {side_label!r} is not a bond symbol"))

    # Bond-order change per atom must be reachable between allowed valences.
    delta2: dict[int, int] = {nid: 0 for nid in atoms}
    for e in rule.edges:
        for side_label, sign in ((e.left, -1), (e.right, +1)):
            if side_label is None or side_label not in _ORDER2:
                continue
            delta2[e.source] += sign * _ORDER2[side_label]
            delta2[e.target] += sign * _ORDER2[side_label]

    for n in rule.nodes:
        left_atom, right_atom = atoms[n.id]
        if left_atom is None or right_atom is None or n.id in wild_edge_nodes:
            continue
        lv = allowed_valences(left_atom.element, left_atom.charge)
        rv = allowed_valences(right_atom.element, right_atom.charge)
        if not lv or not rv:
            violations.append(RuleViolation(
                "valence", n.id,
                f"no valence rule for {left_atom.render()!r} → "
                f"{right_atom.render()!r}"))
            continue
        d2 = delta2[n.id]
        if not any(2 * (b - a) == d2 for a in lv for b in rv):
            violations.append(RuleViolation(
                "valence", n.id,
                f"bond-order change {d2 / 2:+g} on node {n.id} does not fit "
                f"any valence transition of {left_atom.render()} → "
                f"{right_atom.render()}"))

    normalized = RuleGraph(rule.rule_id, rule.nodes, rule.edges, rule.constraints,
                           wildcard=wildcard)
    return violations, normalized
