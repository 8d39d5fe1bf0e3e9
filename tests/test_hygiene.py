"""Source hygiene for the modules under ``src/grw``.

No module imports a name it never uses; package ``__init__`` modules are
skipped, since their imports are the package's re-exports.  No module
but ``core.py`` reads the storage attributes of ``LabeledGraph``, so
that the way edges are stored is known in one place.  Each name of the
valence model (``BOND_ORDERS``, ``allowed_valences``,
``implicit_hydrogens``) is read only by the modules listed for it in
``READERS``, so that no other module decides how a bond label counts
toward valence or what an atom environment means.
No function calls itself by name, so that no search depends on the
interpreter's recursion limit.
Every import is at module level, so that a module's dependencies are
read in one place and an import cycle shows when the package loads.
Every module-level logger is called in its module, so that no module
keeps a logger it no longer writes to.
``network.py`` names ``find_monomorphisms`` and ``estimate_energy`` at
one site each, so that a molecule's matches and its energy are decided
in one place.
Importing the package again does not keep the old copy alive.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from grw import LabeledGraph

SRC = Path(__file__).resolve().parent.parent / "src" / "grw"
MODULES = sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no other code reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(system, d.x)\n"
    assert unused_imports(source) == ["c (line 3)", "os (line 1)"]


def test_modules_found():
    assert "core.py" in MODULES and "chem/smiles.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_module_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


# LabeledGraph's storage slots, and the edge map it used to keep as well.
STORAGE = frozenset({"_labels", "_adj", "_ext_ids", "_edges"})


def storage_reads(source: str) -> list[str]:
    """Every access to an attribute named like a ``LabeledGraph`` slot."""
    tree = ast.parse(source)
    found = sorted((n.lineno, n.attr) for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and n.attr in STORAGE)
    return [f"{attr} (line {line})" for line, attr in found]


def test_checker_flags_a_storage_read():
    source = "a = g._adj[0]\nb = dict(host._edges)\nc = g.neighbors(0)\nd = x.labels\n"
    assert storage_reads(source) == ["_adj (line 1)", "_edges (line 2)"]


def test_storage_names_cover_the_slots():
    assert set(LabeledGraph.__slots__) <= STORAGE


@pytest.mark.parametrize("module", [m for m in MODULES if m != "core.py"])
def test_graph_storage_is_read_only_in_core(module):
    assert storage_reads((SRC / module).read_text()) == []


# The names of the valence model, each with the modules that may read it,
# so that no other module decides how a bond label counts toward valence
# or what an atom environment means.  Package __init__ modules re-export
# them and are not in MODULES.
READERS = {
    "BOND_ORDERS": frozenset({"chem/atoms.py", "chem/molecule.py", "chem/rulecheck.py"}),
    "allowed_valences": frozenset({"chem/atoms.py", "chem/rulecheck.py"}),
    "implicit_hydrogens": frozenset({"chem/atoms.py"}),
}


def name_reads(source: str, names) -> list[str]:
    """Lines that import, name or take the attribute of one of ``names``."""
    found = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and n.id in names:
            found.add((n.lineno, n.id))
        elif isinstance(n, ast.Attribute) and n.attr in names:
            found.add((n.lineno, n.attr))
        elif isinstance(n, ast.ImportFrom):
            found.update((n.lineno, a.name) for a in n.names if a.name in names)
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_checker_flags_a_bond_order_read():
    source = ("from .atoms import BOND_ORDERS as B, implicit_hydrogens\n"
              "x = atoms.BOND_ORDERS[':']\ny = BOND_SYMBOLS\nz = sorted(BOND_ORDERS)\n"
              "w = allowed_valences('C')\n")
    assert name_reads(source, {"BOND_ORDERS", "implicit_hydrogens"}) == [
        "BOND_ORDERS (line 1)", "implicit_hydrogens (line 1)", "BOND_ORDERS (line 2)",
        "BOND_ORDERS (line 4)"]


@pytest.mark.parametrize("module", MODULES)
def test_bond_orders_are_read_only_by_the_valence_model(module):
    barred = {name for name, readers in READERS.items() if module not in readers}
    assert name_reads((SRC / module).read_text(), barred) == []


def self_calls(source: str) -> list[str]:
    """Dotted names of the functions that call themselves by name."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == child.name for n in ast.walk(child)):
                    found.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_checker_flags_a_self_call():
    source = ("def f(n):\n    return f(n - 1) if n else 0\n"
              "def g():\n    def h(x):\n        return [h(y) for y in x]\n    return h\n"
              "def k():\n    return f(1)\n")
    assert self_calls(source) == ["f", "g.h"]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_calls_itself(module):
    assert self_calls((SRC / module).read_text()) == []


def nested_imports(source: str) -> list[str]:
    """Every ``import`` statement that is not at module level."""
    tree = ast.parse(source)
    top = set(tree.body)
    found = sorted((n.lineno, ast.unparse(n)) for n in ast.walk(tree)
                   if isinstance(n, (ast.Import, ast.ImportFrom)) and n not in top)
    return [f"{text} (line {line})" for line, text in found]


def test_checker_flags_a_nested_import():
    source = ("import os\nfrom a import b\n"
              "def f():\n    import sys\n    return sys\n"
              "class C:\n    from .x import y\n"
              "if os:\n    import json\n")
    assert nested_imports(source) == ["import sys (line 4)", "from .x import y (line 7)",
                                      "import json (line 9)"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_at_module_level(module):
    assert nested_imports((SRC / module).read_text()) == []


def uncalled_loggers(source: str) -> list[str]:
    """Names bound at module level to a ``getLogger`` result that no call
    in the module takes a method of."""
    tree = ast.parse(source)
    loggers = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            func = node.value.func
            if getattr(func, "attr", getattr(func, "id", None)) == "getLogger":
                loggers.update((t.id, node.lineno) for t in node.targets
                               if isinstance(t, ast.Name))
    called = {n.func.value.id for n in ast.walk(tree)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
              and isinstance(n.func.value, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(loggers.items())
            if name not in called]


def test_checker_flags_an_uncalled_logger():
    source = ("import logging\nfrom logging import getLogger\n"
              "log = logging.getLogger(__name__)\nquiet = getLogger('q')\n"
              "loud = logging.getLogger('l')\n"
              "def f():\n    loud.info('x')\n    return quiet\n")
    assert uncalled_loggers(source) == ["log (line 3)", "quiet (line 4)"]


@pytest.mark.parametrize("module", MODULES)
def test_every_logger_is_called(module):
    assert uncalled_loggers((SRC / module).read_text()) == []


def name_sites(source: str, names) -> dict[str, list[int]]:
    """The lines that name each of ``names`` outside an import: every
    call, and every reference that could be called elsewhere."""
    found: dict[str, list[int]] = {name: [] for name in names}
    for n in ast.walk(ast.parse(source)):
        name = getattr(n, "id", getattr(n, "attr", None))  # a Name or an Attribute
        if name in found:
            found[name].append(n.lineno)
    return {name: sorted(lines) for name, lines in found.items()}


def test_checker_flags_every_site():
    source = ("from .match import find_monomorphisms\nfrom . import chem\n"
              "a = find_monomorphisms(p, h)\n"
              "b = [chem.estimate_energy(m, e) for m in ms]\n"
              "c = find_monomorphisms\nd = 'find_monomorphisms'\n")
    assert name_sites(source, ("find_monomorphisms", "estimate_energy", "apply")) == {
        "find_monomorphisms": [3, 5], "estimate_energy": [4], "apply": []}


def test_network_matches_and_estimates_at_one_site_each():
    sites = name_sites((SRC / "network.py").read_text(),
                       ("find_monomorphisms", "estimate_energy"))
    assert {name: len(lines) for name, lines in sites.items()} == {
        "find_monomorphisms": 1, "estimate_energy": 1}, sites


REIMPORT = """
import gc, sys, weakref
import grw.rules
old = weakref.ref(grw.rules.RewriteResult)
for name in [m for m in sys.modules if m == "grw" or m.startswith("grw.")]:
    del sys.modules[name]
import grw.rules
gc.collect()
assert old() is None, "the first copy of grw is still alive"
"""


def test_reimported_package_frees_the_old_copy():
    # Module-level objects must not be cached process-wide (typing caches
    # its subscripted aliases), or every re-import keeps a copy alive.
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", REIMPORT], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
