"""Source hygiene: no module under ``src/grw`` imports a name it never uses.

Package ``__init__`` modules are skipped, since their imports are the
package's re-exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

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
