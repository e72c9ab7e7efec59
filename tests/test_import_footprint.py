"""The runtime import path is numpy-only: no scipy, no networkx."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_entry_points_import_without_scipy_or_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "check_import_footprint.py")],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "import footprint OK" in out.stdout
