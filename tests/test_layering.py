"""Import layering: each entry point loads only the modules it runs.

``istrata.io`` and ``istrata.cli`` import the lattice and Hodge modules
inside the functions that use them, so a cold ``normal-form`` never compiles
``strata`` or ``torelli``.  These checks run fresh interpreters, so a future
module-level import that undoes the layering fails here.  The CLI's label
choices come from ``istrata.STRATUM_LABELS`` without importing ``strata``;
the last checks tie the two together.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from istrata import strata
from istrata.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"

# run one CLI invocation (or none) with its report discarded, then print the
# exit code and the loaded istrata modules as JSON on stderr
_PROBE = """
import contextlib, io, json, sys
import istrata.io
argv = json.loads(sys.argv[1])
code = None
if argv:
    from istrata.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "istrata")]),
      file=sys.stderr)
"""


def _loaded(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stderr)
    assert code == (0 if argv else None)
    return {m.removeprefix("istrata.") for m in modules}


def test_io_loads_no_lattice_or_hodge_module():
    assert _loaded() == {"istrata", "exact", "io"}


def test_normal_form_loads_only_normalform():
    assert _loaded("normal-form", "--seed", "3") == {
        "istrata", "cli", "exact", "io", "normalform"
    }


@pytest.mark.parametrize("argv", [("verify-stratum", "rat21"), ("roots", "--label", "rat22")])
def test_lambda_subcommands_skip_torelli_and_normalform(argv):
    loaded = _loaded(*argv)
    assert "strata" in loaded
    assert not loaded & {"torelli", "normalform"}


def test_monodromy_skips_strata():
    loaded = _loaded("monodromy", "ell211")
    assert "monodromy" in loaded
    assert not loaded & {"strata", "torelli", "tori", "roots", "normalform"}


def _label_choices():
    """Subcommand -> the choices of its label argument, for each subcommand
    that takes one."""
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    return {
        name: tuple(a.choices)
        for name, p in sub.choices.items()
        for a in p._actions
        if a.dest == "label"
    }


def test_label_choices_are_the_strata():
    choices = _label_choices()
    assert set(choices) == {"verify-stratum", "classify", "roots", "monodromy", "gen-fixture"}
    for name, labels in choices.items():
        extra = ("rational",) if name == "monodromy" else ()
        assert labels == (*strata.STRATUM_LABELS, *extra), name


@pytest.mark.parametrize(
    "argv",
    [("verify-stratum", "rat33"), ("classify", "--label", "rat33"), ("roots", "--label", "rat33"),
     ("monodromy", "rat33"), ("gen-fixture", "rat33")],
    ids=lambda argv: argv[0],
)
def test_bad_label_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "invalid choice: 'rat33'" in capsys.readouterr().err
