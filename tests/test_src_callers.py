"""Every public function and method of ``src/istrata`` has a caller.

The scan ``ast``-parses each module and collects its module-level functions
and the methods of its module-level classes whose names do not start with
an underscore.  Each must be named, as a whole word, somewhere in the
Python files of ``src/``, ``demos/`` or ``perfbench/`` outside the lines of
its own definition; tests do not count.  A function that only tests read is
either deleted or listed in ``ALLOWED`` with its reason.

The check is by name, not by binding: a method with a common name (``scale``,
``order``) passes as soon as any other use of that word appears, whatever
object it belongs to.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "demos", "perfbench")

ALLOWED = {
    "lattices.inertia": "test oracle of the Sylvester check; the bench contract names it",
    "roots.connection_index": "to be wired into the verify-stratum Niemeier certificate",
    "roots.niemeier_identify": "to be wired into the verify-stratum Niemeier certificate",
    "roots.highest_root_coefficients": "to be wired into the verify-stratum Niemeier certificate",
    "torelli.exceptional_via_weyl_orbit": "independent oracle for enumerate_exceptional",
    "strata.completed_E8_roots": "independent oracle: explicit E8 completions of rat21 and ell211",
}


def _public_defs(tree):
    """(name, first line, last line) of each public function and method."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for f in members:
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                first = min([f.lineno] + [d.lineno for d in f.decorator_list])
                yield f.name, first, f.end_lineno


def _uncalled():
    files = {
        p: p.read_text().splitlines() for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))
    }
    out = set()
    for path in sorted((ROOT / "src" / "istrata").glob("*.py")):
        for name, first, last in _public_defs(ast.parse(path.read_text())):
            word = re.compile(rf"\b{re.escape(name)}\b")
            named = any(
                word.search(line)
                for p, lines in files.items()
                for n, line in enumerate(lines, start=1)
                if not (p == path and first <= n <= last)
            )
            if not named:
                out.add(f"{path.stem}.{name}")
    return out


def test_every_public_function_has_a_caller():
    assert _uncalled() == set(ALLOWED)
