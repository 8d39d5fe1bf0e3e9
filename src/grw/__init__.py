"""Graph rewriting for labeled undirected graphs, with a chemistry layer.

The package is organized in three tiers:

- :mod:`grw.core`, :mod:`grw.match`, :mod:`grw.rules` — generic labeled
  graphs, constraint-aware subgraph matching, and double-pushout rule
  application with a GML rule format.
- :mod:`grw.chem` — molecules, SMILES, perception, rule sanity, energies.
- :mod:`grw.network` — iterative expansion of reaction networks.
"""

from .core import (GmlError, GraphPool, LabeledGraph, connected_components,
                   disjoint_union, parse_gml_graph, write_gml_graph)
from .match import (Adjacency, EdgeLabel, NodeDegree, NodeLabel, NoEdge,
                    Pattern, are_isomorphic, canonical_key,
                    check_constraints, find_monomorphisms)
from .rules import (ApplicationError, ExploreResult, RewriteResult, RuleEdge,
                    RuleError, RuleGraph, RuleNode, apply, apply_all, explore,
                    parse_gml_rule, reverse_rule)

__version__ = "0.1.0"

__all__ = [
    "GmlError", "GraphPool", "LabeledGraph", "connected_components",
    "disjoint_union", "parse_gml_graph", "write_gml_graph",
    "Adjacency", "EdgeLabel", "NodeDegree", "NodeLabel", "NoEdge", "Pattern",
    "are_isomorphic", "canonical_key", "check_constraints",
    "find_monomorphisms",
    "ApplicationError", "ExploreResult", "RewriteResult", "RuleEdge",
    "RuleError", "RuleGraph", "RuleNode", "apply", "apply_all", "explore",
    "parse_gml_rule", "reverse_rule",
    "__version__",
]
