"""Every name a package module imports at module level is used in it.

No linter ships with the test dependencies, so this reads each module
with ``ast``: a name an import binds must occur as a name in its code.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "binrisk"
# pipeline imports these for the CLI, which calls every loader through it.
RE_EXPORTS = {"pipeline.py": {"load_corpus", "load_embeddings", "load_ssckg"}}


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    unused = imported_names(tree) - used_names(tree) - RE_EXPORTS.get(module, set())
    assert not unused, f"{module} imports names it never uses: {sorted(unused)}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os.path\nfrom .errors import ParseError, SchemaError\n"
                     "def f(x: os.PathLike) -> None:\n    raise SchemaError(x)\n")
    assert imported_names(tree) - used_names(tree) == {"ParseError"}
