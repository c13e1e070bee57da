"""Each demo runs to completion and prints exactly its pinned output.

The demos assert their own identities (NᵢNⱼ = 0, round trips, a fixed t⁰
part), so exit 0 checks those; the sha256 of stdout pins everything they
print.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PINNED_DEMOS = {
    "monodromy_patterns": "636937cdc09cffa67f4b44e6193f2e034a76e43ca843a8b270e9babf9763aff8",
    "normal_form_walkthrough": "ce982a0067d8248e66802f28aa0b049a144a635ebfc8b090b5a6a5526c5d1482",
    "stratum_invariants": "8998d445e43b852a56353c237841f3d70dca7dee9b6abd20a0d70896e29785f6",
    "torelli_reconstruction": "703ef844df21cd6c1074f8768052f38066757ea51f1f942d71d2ec1e225abe6c",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(PINNED_DEMOS)


@pytest.mark.parametrize("name", sorted(PINNED_DEMOS))
def test_demo_output(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env=env, capture_output=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_DEMOS[name]
