"""Every public function, method and dataclass field of ``src/istrata`` is read.

The scan ``ast``-parses each module.  A module-level function whose name does
not start with an underscore must be named, as a whole word, somewhere in the
Python files of ``src/``, ``demos/`` or ``perfbench/`` outside the lines of its
own definition.  A public method or property of a module-level class counts
as called only where ``.name`` appears outside its definition, and a field of
a dataclass only where ``.name`` appears at all.  Tests do not count.  Code
that only tests read is either deleted or listed in ``ALLOWED`` with its
reason.

The check is by name, not by binding: ``.order`` passes as soon as any object
has that attribute read, whatever its class.
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
    "strata.ExtensionMap.psi": "the assembled ψ: Λ → JW₁, checked by acceptance criterion 7",
    "torelli.ReconstructionResult.orbit": "the nine E[3] translates that acceptance pins",
    "tori.TorusMorphism.degree": "oracle of kernel_points: the kernel has order |det M|",
    "tori.TorusPoint.scale": "oracle of kernel_points: spans the kernel from its generators",
}


def _is_dataclass(cls):
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _public_defs(tree):
    """(qualified name, pattern, first line, last line) of each public
    function, method and dataclass field; a field has no excluded lines."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, rf"\b{node.name}\b", first, node.end_lineno
        if not isinstance(node, ast.ClassDef):
            continue
        for f in node.body:
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"):
                first = min([f.lineno] + [d.lineno for d in f.decorator_list])
                yield f"{node.name}.{f.name}", rf"\.{f.name}\b", first, f.end_lineno
            elif (
                _is_dataclass(node)
                and isinstance(f, ast.AnnAssign)
                and isinstance(f.target, ast.Name)
            ):
                yield f"{node.name}.{f.target.id}", rf"\.{f.target.id}\b", 0, -1


def _uncalled():
    files = {
        p: p.read_text().splitlines() for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))
    }
    out = set()
    for path in sorted((ROOT / "src" / "istrata").glob("*.py")):
        for name, pattern, first, last in _public_defs(ast.parse(path.read_text())):
            word = re.compile(pattern)
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
