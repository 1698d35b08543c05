"""The profile, reconstruction and exhaustive-verification demos run to
completion.

Demos 01-03 call every public profile and reconstruction function, and
demo 04 verifies every tree with up to eight vertices; each runs in a
fresh interpreter with the imported package first on ``PYTHONPATH``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kneserchrom

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "demo",
    [
        "01_invariant_basics.py",
        "02_tree_profiles.py",
        "03_reconstruction.py",
        "04_exhaustive_verification.py",
    ],
)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    package_root = str(Path(kneserchrom.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
