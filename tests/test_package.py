import ast
from pathlib import Path

import congspeed


def test_every_export_resolves():
    for name in congspeed.__all__:
        assert hasattr(congspeed, name), name


def test_exports_are_the_imported_public_names():
    # A helper deleted from a module must not leave a stale export behind,
    # and every public name the package imports must be exported.
    tree = ast.parse(Path(congspeed.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(congspeed.__all__) == sorted(n for n in imported if not n.startswith("_"))
