"""Properties of the hbcells source as a whole."""

import ast
import collections
import dataclasses
import importlib
import itertools
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

import hbcells
from hbcells.betti import (BettiTable, GradedPieceMatrix, ResolutionDegrees,
                           StratumDescriptor, betti_numbers, graded_matrix,
                           resolution_degrees, stratum_descriptor)
from hbcells.census import CellCensus, cell_census
from hbcells.field import GF, QQ
from hbcells.generic_cells import (EliminationReport, GenericFamily, ParameterEquations,
                                   buchberger_equations, cell_report, generic_family)
from hbcells.groebner import MonomialIdeal
from hbcells.hilbert_burch import (CanonicalFrame, CellKind, CellMatrix,
                                   canonical_frame, random_cell_matrix, slot_set)
from hbcells.poly import Polynomial, UniPoly, parse_polynomial
from hbcells.staircase import HSeries, Staircase

MODULES = sorted(pathlib.Path(hbcells.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_code_objects_have_unique_first_line_and_name(path):
    # cProfile and pstats key a function by (file, first line, name): two
    # comprehensions that start on one line share a key, and their call
    # counts can then change from one process to the next
    stack = [compile(path.read_text(), str(path), "exec")]
    keys = collections.Counter()
    while stack:
        code = stack.pop()
        keys[code.co_firstlineno, code.co_name] += 1
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    assert [key for key, n in keys.items() if n > 1] == []


def test_profiled_functions_of_the_benchmark_resolve():
    # perfbench's profile rollup looks every PROFILED_FUNCTIONS entry up with
    # getattr and no default: a renamed or deleted function would otherwise
    # fail only the traced benchmark run, after the tests have passed
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"
    assigns = [node for node in ast.parse(path.read_text()).body if isinstance(node, ast.Assign)]
    entries = next(ast.literal_eval(node.value) for node in assigns
                   if [getattr(t, "id", None) for t in node.targets] == ["PROFILED_FUNCTIONS"])
    assert entries
    for module, qualname in entries:
        obj = importlib.import_module(f"hbcells.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert isinstance(obj.__code__, types.CodeType), (module, qualname)


def _functools_memos(tree):
    """(line, maxsize expression or None) for each functools memo in ``tree``.

    ``functools.cache`` (and importing it) gives the expression ``None``, as
    does ``lru_cache(maxsize=None)``; a bare ``lru_cache`` gives its default,
    128, as a constant.
    """
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [(node.lineno, ast.Constant(None)) for a in node.names if a.name == "cache"]
            continue
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if name == "cache" and isinstance(node, ast.Attribute):
            out.append((node.lineno, ast.Constant(None)))
        elif name == "lru_cache":
            call = calls.get(id(node))
            sizes = [] if call is None else (
                call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"])
            out.append((node.lineno, sizes[0] if sizes else ast.Constant(128)))
    return out


def test_every_memo_has_a_finite_maxsize():
    # functools.cache and lru_cache(maxsize=None) keep every distinct argument
    # for the life of the process; the package's memos are bounded
    found = 0
    for path in MODULES:
        module = importlib.import_module(f"hbcells.{path.stem}")
        for line, expr in _functools_memos(ast.parse(path.read_text())):
            size = eval(compile(ast.Expression(expr), str(path), "eval"), vars(module))
            assert type(size) is int and size > 0, f"{path.name}:{line} has maxsize {size!r}"
            found += 1
    assert found >= 4  # the frame functions of hilbert_burch and betti


# -- frozen value types and records ---------------------------------------------

E = Staircase((0, 1, 3))

VALUES = {
    Polynomial: lambda: parse_polynomial("x^2 - 3*y", ("x", "y")),
    UniPoly: lambda: UniPoly(QQ, [1, 2]),
    MonomialIdeal: lambda: MonomialIdeal(2, [(2, 0), (0, 1)]),
    Staircase: lambda: E,
    HSeries: lambda: HSeries((1, 2, 1)),
    CellMatrix: lambda: random_cell_matrix(E, CellKind.V0, 1),
    BettiTable: lambda: betti_numbers(E, {s: 0 for s in slot_set(E)}),
}
RECORDS = {
    CanonicalFrame: lambda: canonical_frame(E),
    ResolutionDegrees: lambda: resolution_degrees(E),
    GradedPieceMatrix: lambda: graded_matrix(E, 3),
    StratumDescriptor: lambda: stratum_descriptor(E, 3, 1),
    GenericFamily: lambda: generic_family([(2, 0), (1, 1), (0, 2)], 2, graded=True),
    EliminationReport: lambda: cell_report([(2, 0), (1, 1), (0, 2)], 2, graded=False)[1],
    ParameterEquations: lambda: buchberger_equations(
        generic_family([(2, 0), (1, 1), (0, 2)], 2, graded=False)),
    CellCensus: lambda: cell_census(3),
}


@pytest.mark.parametrize("cls", [*VALUES, *RECORDS], ids=lambda cls: cls.__name__)
def test_attributes_cannot_be_assigned_or_deleted(cls):
    obj = {**VALUES, **RECORDS}[cls]()
    assert type(obj) is cls
    for f in dataclasses.fields(obj):
        before = getattr(obj, f.name)
        with pytest.raises(AttributeError):
            setattr(obj, f.name, before)
        with pytest.raises(AttributeError):
            delattr(obj, f.name)
        assert getattr(obj, f.name) is before
    # a name that is not a field has no slot; Python 3.10-3.12 raise TypeError
    # from the frozen __setattr__ of a slotted dataclass here
    with pytest.raises((AttributeError, TypeError)):
        obj.extra = 1


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_compare_by_identity(cls):
    rec = RECORDS[cls]()
    assert rec == rec
    assert dataclasses.replace(rec) != rec


def test_equality_covers_the_field_and_equal_values_hash_alike():
    assert UniPoly(QQ, [1]) != UniPoly(GF(2), [1])
    assert UniPoly(GF(3), [1, 2]) != UniPoly(GF(5), [1, 2])
    assert CellMatrix.zero(E, QQ) != CellMatrix.zero(E, GF(3))
    p = parse_polynomial("x + 2*y", ("x", "y"))
    assert p != parse_polynomial("x + 2*y", ("x", "y"), GF(3))
    for field in (QQ, GF(3)):
        assert UniPoly(field, [1, 2, 0]) == UniPoly(field, (1, 2))
        assert hash(UniPoly(field, [1, 2, 0])) == hash(UniPoly(field, (1, 2)))
        N = random_cell_matrix(E, CellKind.V0, 7, field)
        again = CellMatrix.from_json(N.to_json(), field)
        assert again == N and hash(again) == hash(N)
        assert len({N, again, CellMatrix.zero(E, field)}) == 2
    with pytest.raises(TypeError):
        hash(VALUES[BettiTable]())  # its data is a dict


def test_value_hashes_repeat_across_hash_seeds():
    # a field's hash is an int, so a value that holds its field hashes alike
    # in every process, whatever the str hash seed
    code = ("from hbcells.field import GF, QQ; from hbcells.poly import UniPoly; "
            "print(hash(UniPoly(QQ, [1, 2])), hash(UniPoly(GF(3), [1, 2])), hash(UniPoly(GF(4), [1])))")
    src = str(pathlib.Path(hbcells.__file__).parent.parent)
    outs = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
            for seed in ("1", "2")}
    assert len(outs) == 1


def test_readme_api_table_names_public_api():
    # every name in the README's table of entry points is exported, so a
    # change that drops a documented function fails here, not for a user
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    lines = readme[readme.index("| area | functions |"):].splitlines()
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), lines))[2:]
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row)]
    assert len(names) >= 30 and "brute_force_ideal_count" in names
    for name in names:
        assert name in hbcells.__all__ and hasattr(hbcells, name), name


def test_readme_layout_lists_every_module():
    # the README's Layout block names each module of src/hbcells once, so a
    # module added or deleted without its line fails here
    root = pathlib.Path(__file__).parent.parent
    readme = (root / "README.md").read_text()
    block = readme[readme.index("## Layout"):].split("```")[1]
    listed = re.findall(r"^  (\w+\.py) ", block, re.MULTILINE)
    modules = sorted(p.name for p in (root / "src" / "hbcells").glob("*.py")
                     if p.name != "__init__.py")
    assert sorted(listed) == modules and len(listed) == len(set(listed))
