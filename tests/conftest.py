"""Shared fixtures and small helpers for the test suite."""

from __future__ import annotations

import shutil
import tempfile
from importlib import resources
from random import Random

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from grw import LabeledGraph, RuleGraph, parse_gml_rule
from grw.chem import (Molecule, check_chem_rule, fill_hydrogens, parse_smiles,
                      perceive_aromaticity, sanity_check)

# Property tests draw the same examples on every run and keep no example
# database.
settings.register_profile("grw", derandomize=True, database=None, deadline=None,
                          max_examples=150)
settings.load_profile("grw")

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # Hypothesis still caches the constants it mines from local modules, at
    # collection time; keep that cache in a temporary directory that the
    # session removes, not in a ``.hypothesis/`` directory in the checkout.
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="grw-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


def asset_text(name: str) -> str:
    return (resources.files("grw") / "assets" / name).read_text()


def load_rule(name: str) -> RuleGraph:
    """Parse a packaged rule file and apply the chemical-rule check."""
    rule = parse_gml_rule(asset_text(name))
    violations, normalized = check_chem_rule(rule)
    assert not violations, f"{name}: {[str(v) for v in violations]}"
    return normalized


def prep(smiles: str) -> Molecule:
    """Parse a single-component SMILES into a filled, perceived molecule."""
    (m,) = parse_smiles(smiles)
    m = perceive_aromaticity(fill_hydrogens(m))
    problems = sanity_check(m)
    assert not problems, f"{smiles}: {[str(p) for p in problems]}"
    return m


def permuted(m: Molecule, rng: Random) -> Molecule:
    """The same molecule presented under a random node permutation."""
    g = m.graph
    perm = list(range(g.node_count))
    rng.shuffle(perm)  # perm[old] = new
    labels = [""] * g.node_count
    for old, new in enumerate(perm):
        labels[new] = g.label(old)
    edges = [(perm[u], perm[v], lbl) for u, v, lbl in g.edges()]
    return Molecule(LabeledGraph.from_parts(labels, edges), {}, filled=True)


def assert_same_as_rebuild(g: LabeledGraph, ext_ids=None) -> None:
    """``g`` is identical to a validated ``from_parts`` build of its parts.

    The parts are handed over shuffled and with random edge orientation,
    so the rebuild does its own sorting; node labels, edge order,
    neighbour order of every node and external ids (``0..n-1`` unless
    ``ext_ids`` is given) must all agree.
    """
    rng = Random(g.node_count * 1009 + g.edge_count)
    edges = [(v, u, lbl) if rng.random() < 0.5 else (u, v, lbl)
             for u, v, lbl in g.edges()]
    rng.shuffle(edges)
    ref = LabeledGraph.from_parts(g.node_labels, edges, ext_ids)
    assert g.node_labels == ref.node_labels
    assert list(g.edges()) == list(ref.edges())
    assert [list(g.neighbors(v).items()) for v in g.nodes()] == \
        [list(ref.neighbors(v).items()) for v in ref.nodes()]
    assert g.ext_ids == ref.ext_ids
    assert list(g.edges()) == sorted(g.edges())
    assert all(list(g.neighbors(v)) == sorted(g.neighbors(v)) for v in g.nodes())


@pytest.fixture(scope="session")
def formose_rules() -> list[RuleGraph]:
    return [load_rule(n) for n in
            ("keto_enol.gml", "keto_enol_reverse.gml",
             "aldol.gml", "aldol_reverse.gml")]


@pytest.fixture(scope="session")
def diels_alder_rule() -> RuleGraph:
    return load_rule("diels_alder.gml")


@pytest.fixture(scope="session")
def formose_inputs() -> list[Molecule]:
    return [prep("OCC=O"), prep("C=O")]


@pytest.fixture(scope="session")
def formose_net5(formose_rules, formose_inputs):
    from grw.network import ExpansionConfig, expand
    return expand(formose_inputs, formose_rules, ExpansionConfig(iterations=5))


@pytest.fixture(scope="session")
def formose_net6(formose_rules, formose_inputs):
    """Formose expansion to iteration 6, computed once for every test that reads it."""
    from grw.network import ExpansionConfig, expand
    return expand(formose_inputs, formose_rules, ExpansionConfig(iterations=6))
