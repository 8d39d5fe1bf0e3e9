"""Molecular groups: named fragments usable as pseudo-atoms.

A group is a connected molecule fragment with one designated *proxy*
atom.  Wherever a SMILES string or a rule mentions the placeholder
``[{NAME}]``, the whole fragment is spliced in and the proxy atom takes
over the placeholder's bonds.  Registries load from a GML-like file of
``group [ groupID "..." proxy N graph [ ... ] ]`` blocks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core import (GmlError, LabeledGraph, TokenStream, _graph_from_declarations,
                    _parse_graph_body)
from .atoms import BOND_SYMBOLS, parse_atom_label
from .molecule import ChemError


@dataclass(frozen=True)
class Group:
    name: str
    graph: LabeledGraph  # node ids 0..n-1; labels are atom labels
    proxy: int           # node id substituted for the placeholder

    def __post_init__(self):
        if not (0 <= self.proxy < self.graph.node_count):
            raise ChemError(f"group {self.name!r}: proxy node not in fragment")


def _placeholder_name(label: str) -> str | None:
    if label.startswith("[{") and label.endswith("}]"):
        return label[2:-2]
    return None


class GroupRegistry:
    """Lookup table of molecular groups, by name."""

    def __init__(self, groups: list[Group] = ()):  # type: ignore[assignment]
        self._groups: dict[str, Group] = {}
        for grp in groups:
            self.add(grp)

    def add(self, group: Group) -> None:
        if group.name in self._groups:
            raise ChemError(f"duplicate group {group.name!r}")
        for v in group.graph.nodes():
            lbl = group.graph.label(v)
            if parse_atom_label(lbl) is None:
                raise ChemError(
                    f"group {group.name!r}: node {v} label {lbl!r} is not an atom")
        for _, _, lbl in group.graph.edges():
            if lbl not in BOND_SYMBOLS:
                raise ChemError(f"group {group.name!r}: bond label {lbl!r} unknown")
        self._groups[group.name] = group

    def __contains__(self, name: str) -> bool:
        return name in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def get(self, name: str) -> Group:
        if name not in self._groups:
            raise ChemError(f"unknown group {name!r}")
        return self._groups[name]

    def names(self) -> list[str]:
        return sorted(self._groups)

    def splice(self, placeholders: dict[int, str], first_id: int
               ) -> tuple[list[tuple[int, str]], list[tuple[int, int, str]]]:
        """The atoms and bonds of the groups that replace placeholder nodes.

        ``placeholders`` maps node id to group name, in declaration order.
        Each proxy atom keeps its placeholder's id; the other fragment
        atoms take fresh ids from ``first_id`` up, group by group in
        fragment order.  Returns the atoms as ``(id, label)`` and the
        fragment bonds as ``(u, v, label)``; the placeholder's own bonds
        pass to the proxy with its id.
        """
        atoms, bonds = [], []
        fresh = itertools.count(first_id)
        for nid, name in placeholders.items():
            group = self.get(name)
            gg = group.graph
            ids = [nid if v == group.proxy else next(fresh) for v in gg.nodes()]
            atoms += [(ids[v], gg.label(v)) for v in gg.nodes()]
            bonds += [(ids[u], ids[v], lbl) for u, v, lbl in gg.edges()]
        return atoms, bonds

    def expand_rule_elements(self, nodes, edges):
        """Replace placeholder nodes in a rule declaration; used by the
        rule parser.

        ``nodes`` is a list of (id, left, right) label triples and
        ``edges`` of (source, target, left, right).  Placeholders must be
        context nodes (same label both sides); the fragment is spliced in
        as context with fresh ids.
        """
        placeholders = {}
        for nid, left, right in nodes:
            name = _placeholder_name(left or "") or _placeholder_name(right or "")
            if name is None:
                continue
            if left != right:
                raise ChemError(
                    f"group placeholder [{{{name}}}] on node {nid} must be a "
                    "context node (identical labels on both sides)")
            self.get(name)  # an unknown name comes before a later node's error
            placeholders[nid] = name
        first_id = max((nid for nid, _, _ in nodes), default=0) + 1
        atoms, bonds = self.splice(placeholders, first_id)
        label = dict(atoms)
        nodes = [(nid, label[nid], label[nid]) if nid in placeholders else (nid, left, right)
                 for nid, left, right in nodes]
        nodes += [(v, lbl, lbl) for v, lbl in atoms if v >= first_id]
        return nodes, list(edges) + [(u, v, lbl, lbl) for u, v, lbl in bonds]


def parse_gml_groups(text: str) -> GroupRegistry:
    """Parse a registry file: a sequence of ``group [ ... ]`` blocks.

    A group that lacks a key, whose proxy is not one of its nodes, or that
    the registry rejects, is reported at its ``group`` keyword.
    """
    ts = TokenStream.from_text(text)
    registry = GroupRegistry()
    while not ts.at_end():
        start = ts.expect_word("group")
        ts.expect("[")
        name = None
        proxy = None
        graph = None
        while ts.peek() is not None and ts.peek().kind == "word":
            key = ts.next().value
            if key == "groupID":
                name = ts.expect("str", "group name").value
            elif key == "proxy":
                proxy = int(ts.expect("int", "proxy node id").value)
            elif key == "graph":
                nodes, edges = _parse_graph_body(ts)
                graph = _graph_from_declarations(nodes, edges)
            else:
                raise ts.error(f"unexpected key {key!r} in group")
        ts.expect("]")
        if name is None or proxy is None or graph is None:
            raise GmlError("group needs groupID, proxy and graph", start.line, start.column)
        if proxy not in graph.ext_ids:
            raise GmlError(f"proxy {proxy} is not a node of group {name!r}",
                           start.line, start.column)
        try:
            registry.add(Group(name, graph, graph.ext_ids.index(proxy)))
        except ChemError as exc:
            raise GmlError(str(exc), start.line, start.column) from exc
    if len(registry) == 0:
        raise GmlError("no group definitions found", 1, 1)
    return registry
