"""Guard: no vectorized norms or compensated sums in the accounting paths.

Odometers, budget checks, arrival times and energy totals must be the
exact left-to-right float sums of per-segment ``math.hypot`` lengths —
the numbers a chain of single ``Move`` actions produces, pinned to the
ulp by the golden traces and the differential suites.  Two stdlib/numpy
shortcuts break that silently:

* ``np.hypot`` / ``np.linalg.norm`` round differently from
  ``math.hypot`` on a fraction of inputs;
* built-in ``sum()`` over floats is compensated (Neumaier) from Python
  3.12 on, so a total would depend on the interpreter version.

This test scans the modules that do the accounting and fails on any such
call.  Use ``math.hypot`` and ``functools.reduce(operator.add, ...)`` or
``itertools.accumulate`` instead.
"""

import ast
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent
ACCOUNTING_MODULES = (
    "sim/engine.py",
    "sim/world.py",
    "sim/lattice.py",
    "core/explore.py",
    "geometry/frontier.py",
)
NUMPY_NAMES = {"numpy"}
FORBIDDEN_NUMPY = {"hypot", "linalg.norm"}


def dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def forbidden_calls(tree):
    numpy_aliases = set(NUMPY_NAMES)
    direct = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            for alias in node.names:
                name = f"{node.module[6:]}.{alias.name}".lstrip(".")
                if name in FORBIDDEN_NUMPY:
                    direct.add(alias.asname or alias.name)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted(node.func)
        if name is None:
            continue
        root, _, rest = name.partition(".")
        if name == "sum" or name in direct:
            found.append((node.lineno, name))
        elif root in numpy_aliases and rest in FORBIDDEN_NUMPY:
            found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("module", ACCOUNTING_MODULES)
def test_accounting_module_is_exact(module):
    path = SRC / module
    found = forbidden_calls(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{module}: inexact accounting calls {found}"


@pytest.mark.parametrize(
    "snippet",
    [
        "total = sum(lengths)",
        "import numpy as np\nd = np.hypot(dx, dy)",
        "import numpy as _np\nd = _np.linalg.norm(v)",
        "import numpy\nd = numpy.hypot(dx, dy)",
        "from numpy import hypot\nd = hypot(dx, dy)",
        "from numpy.linalg import norm\nd = norm(v)",
    ],
)
def test_guard_catches(snippet):
    assert forbidden_calls(ast.parse(snippet))


def test_guard_allows_exact_forms():
    snippet = (
        "import math\nfrom functools import reduce\nfrom operator import add\n"
        "d = math.hypot(dx, dy)\ntotal = reduce(add, lengths, 0.0)\n"
    )
    assert not forbidden_calls(ast.parse(snippet))
