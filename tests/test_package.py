"""The package's public surface: what ``import boxeig`` exports."""

import ast

import boxeig


def test_all_lists_exactly_the_imported_public_names():
    # a name dropped from a module must go from the imports and __all__ together
    tree = ast.parse(open(boxeig.__file__, encoding="utf-8").read())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert len(boxeig.__all__) == len(set(boxeig.__all__))
    assert set(boxeig.__all__) == public


def test_every_exported_name_resolves():
    missing = [name for name in boxeig.__all__ if not hasattr(boxeig, name)]
    assert missing == []
