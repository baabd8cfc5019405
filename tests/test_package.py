"""The package's public surface: what ``import boxeig`` exports."""

import ast
import copy
import pathlib
import pickle
from fractions import Fraction

import pytest

import boxeig
from boxeig.cli import RunConfig
from boxeig.estimates import METHOD_A2, EigenEstimate, RootSelection
from boxeig.goldens import GoldenColumn, GoldenTable
from boxeig.model import BoxProblem, DimensionlessProblem, PotentialSpec, nondimensionalize
from boxeig.poly import RationalPoly, Record
from boxeig.rayleigh_ritz import SecularSystem, build_secular_systems
from boxeig.series import EnergySeries, build_series
from boxeig.variational import RayleighQuotient, build_quotients


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


def test_the_readme_library_example_runs(capsys):
    # the python block under "## Library" in README.md, run as printed: five
    # estimates of the unit ramp's ground state, 10.3685...
    readme = pathlib.Path(boxeig.__file__).parents[2] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and all(line.startswith("10.") for line in lines)
    assert lines[-1].startswith("10.3685071618363371265")


#: Public names that no module of the package uses, each with why it stays.
UNCALLED = {
    "shoot_root": "perfbench and the shooting cross-checks import it (ROADMAP items 16 and 20)",
}


def _references(node, skip):
    """(kind, name) of each Name, Attribute and ``from ... import`` alias under node, outside ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield "name", node.id
    elif isinstance(node, ast.Attribute):
        yield "attribute", node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (("import", alias.name) for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _references(child, skip)


def _package_trees():
    package = pathlib.Path(boxeig.__file__).parent
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}


def _uncalled(private: bool) -> list[str]:
    """The uncalled top-level definitions of the package, of one privacy.

    Public: every function and class, and every public method of a public
    class.  Private: every ``_name`` function; a module hook such as
    ``__getattr__`` is neither.  See the test below for what counts as a use.
    """
    trees = [tree for name, tree in _package_trees().items() if name != "__init__"]
    uncalled = []
    for tree in trees:
        for node in tree.body:
            if private:
                if not isinstance(node, ast.FunctionDef) or node.name[:1] != "_" or node.name[:2] == "__":
                    continue
            elif not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            targets = [(node, {"name", "attribute", "import"})]
            if isinstance(node, ast.ClassDef):
                targets += [
                    (meth, {"attribute"})
                    for meth in node.body
                    if isinstance(meth, ast.FunctionDef) and not meth.name.startswith("_")
                ]
            for definition, kinds in targets:
                used = any(
                    kind in kinds and name == definition.name
                    for other in trees
                    for kind, name in _references(other, definition)
                )
                if not used and definition.name not in UNCALLED:
                    uncalled.append(definition.name)
    return uncalled


def test_every_public_name_has_a_caller_in_the_package():
    """Every public function, class and method of a module is used elsewhere in the package.

    A use is read off the syntax tree of a module other than ``__init__.py``,
    outside the name's own definition: a Name, an Attribute or an imported
    name for a top-level function or class, an Attribute for a method of a
    public class.  A name in a string or a docstring is not a use.  A method
    counts as used through any Attribute of its name, whatever object it is
    read from, so methods of several classes that share a name (``zero``,
    say) count as used together.
    """
    assert _uncalled(private=False) == []


def test_every_private_function_has_a_caller_in_the_package():
    # as for public names: a helper that only the tests use lives in the tests
    assert _uncalled(private=True) == []


def test_only_estimates_reads_the_selection_policy():
    # every rule that labels a root lives in estimates.solve_closure (and the
    # select_root mechanism it calls); the solvers only build closure polynomials
    readers = sorted(
        name
        for name, tree in _package_trees().items()
        if any(isinstance(node, ast.Attribute) and node.attr == "policy" for node in ast.walk(tree))
    )
    assert readers == ["estimates"]


# ---------------------------------------------------------------------------
# record classes: immutable values


def _ramp_box() -> BoxProblem:
    return BoxProblem(Fraction(1, 2), 1, 0, 2, 0, RationalPoly.from_coeffs([0, Fraction(1, 16)], "x"))


def _column() -> GoldenColumn:
    return GoldenColumn("W", METHOD_A2, Fraction(1), "w")


#: One builder per record class; each call builds a fresh object with equal fields.
RECORDS = {
    RationalPoly: lambda: RationalPoly((1, 2, 3), Fraction(1), "q"),
    PotentialSpec: lambda: PotentialSpec.linear(1),
    BoxProblem: _ramp_box,
    DimensionlessProblem: lambda: nondimensionalize(_ramp_box()),
    EigenEstimate: lambda: EigenEstimate(METHOD_A2, 5, 0, (Fraction(29, 10), Fraction(31, 10)), Fraction(3)),
    RootSelection: lambda: RootSelection("nearest", Fraction(10)),
    EnergySeries: lambda: build_series(PotentialSpec.linear(1), 5),
    RayleighQuotient: lambda: build_quotients(build_series(PotentialSpec.linear(1), 5), (5,))[5],
    SecularSystem: lambda: build_secular_systems(PotentialSpec.linear(1), (4,))[4],
    RunConfig: lambda: RunConfig((METHOD_A2,), PotentialSpec.linear(1), (5, 6), digits=12),
    GoldenColumn: _column,
    GoldenTable: lambda: GoldenTable(9, "one cell", (5,), (_column(),), (("10.36",),)),
}


def test_every_record_class_is_covered():
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("boxeig.")}
    assert package == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable_values(cls):
    record, equal = RECORDS[cls](), RECORDS[cls]()
    assert type(record) is cls and record is not equal
    assert record == equal and hash(record) == hash(equal)
    # the same fields in another record class make another value
    twin_cls = type("Twin", (Record,), {"__slots__": cls.__slots__})
    twin = twin_cls.__new__(twin_cls)
    for name in cls.__slots__:
        object.__setattr__(twin, name, getattr(record, name))
    assert record != twin and twin != record
    for name in (*cls.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, cls.__slots__[0])
    # repr is the keyword call that rebuilds the record
    namespace = {c.__name__: c for c in RECORDS} | {"Fraction": Fraction}
    assert eval(repr(record), namespace) == record
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    assert record == equal  # unchanged by the refused assignments


def test_a_record_repr_names_its_fields():
    assert repr(RationalPoly((1, 2, 3))) == "RationalPoly(ints=(1, 2, 3), scale=Fraction(1, 1), var='q')"
