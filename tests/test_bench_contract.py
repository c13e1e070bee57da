"""Every per-layer metric named in BENCHMARK.json must name a real function.

The traced benchmark run looks each ``<module>.<attr…>.<suffix>`` metric up
among the wrapped public functions and methods of ``istrata.<module>`` and
fails with a KeyError when one is missing.  This test makes a rename or a
removal of such a function fail here first.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

MODULES = (
    "exact", "lattices", "roots", "tori", "monodromy",
    "strata", "torelli", "normalform", "io", "cli",
)

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _traced_names():
    """'<module>.<attr…>' of every per-layer metric that names a function."""
    out = set()
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        parts = metric["name"].split(".")
        if parts[0] in MODULES and len(parts) > 2:
            out.add(".".join(parts[:-1]))
    return sorted(out)


TRACED_NAMES = _traced_names()


def test_contract_is_not_empty():
    assert len(TRACED_NAMES) > 20


@pytest.mark.parametrize("name", TRACED_NAMES)
def test_per_layer_function_is_defined_in_its_module(name):
    module, *chain = name.split(".")
    home = f"istrata.{module}"
    owner = importlib.import_module(home)
    for attr in chain:
        assert not attr.startswith("_"), f"{attr} is private and never traced"
        assert attr in vars(owner), f"{attr} is not defined on {owner.__name__}"
        owner = vars(owner)[attr]
    assert inspect.isfunction(owner) or hasattr(owner, "cache_info")
    assert owner.__module__ == home
