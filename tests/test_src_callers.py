"""Every function, method, constant and dataclass field of ``src/istrata`` is read.

The scan ``ast``-parses each module.  A module-level function or constant,
public or private (dunders are exempt), must be named, as a whole word,
somewhere in the Python files of ``src/``, ``demos/`` or ``perfbench/``
outside the lines of its own definition.  A public method or property of a
module-level class counts as called only where ``.name`` appears outside its
definition, and a field of a dataclass only where ``.name`` appears at all.
Comments and docstrings are blanked first, so a name they mention is not a
caller.  Tests do not count.  Code that only tests read is either deleted or
listed in ``ALLOWED`` with its reason.

The check is by name, not by binding: ``.order`` passes as soon as any object
has that attribute read, whatever its class.
"""

import ast
import io
import re
import tokenize
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
    "strata.compute_JW1": "the markings that assemble ψ in acceptance criterion 7; the bench contract names it",
    "torelli.ReconstructionResult.orbit": "the nine E[3] translates that acceptance pins",
    "tori.TorusPoint.scale": "oracle of kernel_points: spans the kernel from its generators",
    "tori.TorusPoint.order": "oracle of kernel_points: each generator has its factor's order",
    "tori.kernel_points": "oracle of the pair indices as kernel orders; the bench contract names it",
    "lattices.FiniteAbelianGroup.order": "oracle of kernel_points: the kernel order it returns",
    "exact.integer_kernel": "kernel oracle of TestWeightData; the bench contract names it",
}


def _is_dataclass(cls):
    for d in cls.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _constants(node):
    """The non-dunder name targets of a module-level assignment."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = [t for tgt in targets for t in (tgt.elts if isinstance(tgt, ast.Tuple) else [tgt])]
    return [
        t.id for t in names
        if isinstance(t, ast.Name) and not t.id.startswith("__")
    ]


def _defs(tree):
    """(qualified name, pattern, first line, last line) of each module-level
    function and constant, and of each public method and dataclass
    field; a field has no excluded lines."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, rf"\b{node.name}\b", first, node.end_lineno
        for name in _constants(node):
            yield name, rf"\b{name}\b", node.lineno, node.end_lineno
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


def _code_lines(text):
    """The lines of ``text`` with comments and docstrings blanked; line
    numbers are kept."""
    lines = text.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) or not node.body:
            continue
        doc = node.body[0]
        if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) and isinstance(
            doc.value.value, str
        ):
            for n in range(doc.lineno - 1, doc.end_lineno):
                lines[n] = ""
    return lines


def _uncalled():
    files = {
        p: _code_lines(p.read_text()) for d in SCANNED for p in sorted((ROOT / d).rglob("*.py"))
    }
    out = set()
    for path in sorted((ROOT / "src" / "istrata").glob("*.py")):
        for name, pattern, first, last in _defs(ast.parse(path.read_text())):
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
