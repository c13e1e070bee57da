"""No floating point in ``src/istrata``, checked on the syntax tree.

Every module is scanned for a float or complex literal, a ``float(...)``
call, the true-division operators ``/`` and ``/=``, ``import math``, and any
name imported from ``math`` other than the integer ones.  ``lattices.inertia``
divides `Fraction`s and is allowed by name; it is a test oracle that is to
move into the tests.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "istrata"

MATH_ALLOWED = {"isqrt", "gcd", "lcm", "prod"}
DIVISION_ALLOWED = {"lattices.inertia"}


def _violations(path):
    tree = ast.parse(path.read_text())
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        where = f"{scope}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"{where} float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
            node.func.id == "float"
        ):
            out.append(f"{where} float() call")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            if not any(scope == f or scope.startswith(f + ".") for f in DIVISION_ALLOWED):
                out.append(f"{where} true division")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out.extend(f"{where} math.{a.name}" for a in node.names if a.name not in MATH_ALLOWED)
        elif isinstance(node, ast.Import):
            out.extend(f"{where} import {a.name}" for a in node.names if a.name == "math")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, path.stem)
    return out


def test_src_has_no_floating_point():
    found = [v for path in sorted(SRC.glob("*.py")) for v in _violations(path)]
    assert found == []


def test_scan_finds_each_kind(tmp_path):
    # the scan itself, on a module that has one of everything it rejects
    sample = tmp_path / "lattices.py"
    sample.write_text(
        "import math\n"
        "from math import sqrt, gcd\n"
        "def f(a, b):\n"
        "    a /= b\n"
        "    return a / b + 0.5 + float(b) + 1j\n"
        "def inertia(a, b):\n"
        "    return a / b\n"
    )
    kinds = [v.split(" ", 1)[1] for v in _violations(sample)]
    assert kinds == [
        "import math", "math.sqrt", "true division", "true division", "float literal 0.5",
        "float() call", "float literal 1j",
    ]
