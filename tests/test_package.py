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
from boxeig.rayleigh_ritz import SecularSystem, build_secular
from boxeig.series import EnergySeries, TrialFunction, build_series, build_trial
from boxeig.variational import RayleighQuotient, build_quotient


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
    TrialFunction: lambda: build_trial(build_series(PotentialSpec.linear(1), 5)),
    RayleighQuotient: lambda: build_quotient(build_trial(build_series(PotentialSpec.linear(1), 5))),
    SecularSystem: lambda: build_secular(PotentialSpec.linear(1), 4),
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
