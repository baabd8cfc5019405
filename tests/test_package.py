"""The package's public surface: what ``import boxeig`` exports."""

import ast
import pathlib

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


def test_no_module_imports_a_name_it_never_uses():
    # a prune must take the imports it leaves behind with it, in the package
    # (whose __init__ re-exports) and in the tests alike
    package = pathlib.Path(boxeig.__file__).parent
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += pathlib.Path(__file__).parent.glob("*.py")
    unused = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
