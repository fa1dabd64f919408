"""Properties of the hbcells source as a whole."""

import collections
import pathlib
import types

import pytest

import hbcells

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
