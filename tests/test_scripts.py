"""The runnable sweep scripts, end to end as subprocesses."""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

CELL = re.compile(r"^\s*\{(\d+),(\d+)\}\s+(\d+)\s+\S+\s+(\w+)")


def test_uniformity_sweep_d3_default_trials():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "uniformity_sweep.py"), "--d", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "trials=10000" in proc.stdout
    cells = [CELL.match(line).groups() for line in proc.stdout.splitlines() if CELL.match(line)]
    assert len(cells) == 48
    assert len({cell[:3] for cell in cells}) == 48
    point_masses = [cell for cell in cells if cell[0] == cell[2]]
    assert len(point_masses) == 12
    assert all(cell[3] == "RejectUniform" for cell in point_masses)
