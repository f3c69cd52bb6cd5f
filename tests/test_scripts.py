"""The runnable sweep scripts, end to end as subprocesses."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def run_script(name, *argv, **overrides):
    """Run a script with src on PYTHONPATH; `overrides` set environment variables."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


# sha256 of stdout of each script's default run (one BLAS thread), recorded
# before run() returned the counts array and chi_square_uniform plain values
DEFAULT_RUN_SHA256 = {
    ("uniformity_sweep.py", "--d", "3"):
        "4aed5c148abb9c1cbf6f168bd0f4f07ba17c418597a4ad85320acc9f886c0cbe",
    ("cross_validate_sweep.py",):
        "0ba6df2fedfd1244df57a2cc2ef81e71bcde41bd3f1fe92dcb27c4ccf345de0a",
}


@pytest.mark.parametrize("argv", sorted(DEFAULT_RUN_SHA256), ids=" ".join)
def test_default_run_stdout_is_pinned(argv):
    proc = run_script(*argv, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEFAULT_RUN_SHA256[argv]


def test_cross_validate_sweep_small_primes_agree():
    proc = run_script("cross_validate_sweep.py", "--dims", "2,3,5,7")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "all cells agree"
    assert [line.split()[:3] for line in proc.stdout.splitlines()[1:5]] == [
        ["2", "18", "0"], ["3", "48", "0"], ["5", "180", "0"], ["7", "448", "0"],
    ]


@pytest.mark.parametrize("script, argv, reason", [
    ("uniformity_sweep.py", ["--seed", "-1"], "argument --seed: seed must lie in [0, 2**64)"),
    ("uniformity_sweep.py", ["--seed", str(2**64)], "argument --seed: seed must lie in [0, 2**64)"),
    ("uniformity_sweep.py", ["--d", "4"], "d must be prime"),
    ("uniformity_sweep.py", ["--d", "37"], "no embedded chi-square critical value for df = 36"),
    ("uniformity_sweep.py", ["--trials", "10"], "needs at least 15 trials for a verdict"),
    ("cross_validate_sweep.py", ["--dims", "4"], "d must be prime"),
    ("cross_validate_sweep.py", ["--dims", "37"], "cross-validate is limited to d <= 31, got d = 37"),
    ("cross_validate_sweep.py", ["--dims", ""], "--dims names no dimension"),
    ("cross_validate_sweep.py", ["--tol", "nan"], "argument --tol: tolerance must be finite and > 0"),
    ("uniformity_sweep.py", ["--d", "1010"], "run is limited to d <= 1009, got d = 1010"),
    ("uniformity_sweep.py", ["--d", str(2**61 - 1)], f"run is limited to d <= 1009, got d = {2**61 - 1}"),
    ("uniformity_sweep.py", ["--trials", "10000001"],
     "run is limited to trials <= 10000000, got trials = 10000001"),
    ("cross_validate_sweep.py", ["--dims", f"3,{2**61 - 1}"],
     f"cross-validate is limited to d <= 31, got d = {2**61 - 1}"),
])
def test_scripts_reject_invalid_input_without_traceback(script, argv, reason):
    proc = run_script(script, *argv)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert f"{script}: error: {reason}" in proc.stderr


@pytest.mark.parametrize("script, argv", [
    ("cross_validate_sweep.py", ["--dims", "11", "--tol", "1e-20"]),
    ("uniformity_sweep.py", ["--d", "13", "--trials", "100"]),
])
def test_scripts_exit_1_without_traceback_when_stdout_closes(script, argv):
    from test_cli import read_head_then_close

    code, stderr = read_head_then_close([sys.executable, str(REPO / "scripts" / script), *argv])
    assert (code, stderr) == (1, "")


def test_cross_validate_sweep_lists_disagreeing_cells(capsys, monkeypatch):
    from test_cli import one_disagreeing_report

    spec = importlib.util.spec_from_file_location(
        "cross_validate_sweep", REPO / "scripts" / "cross_validate_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sweep, "cross_validate", one_disagreeing_report)
    monkeypatch.setattr(sys, "argv", ["cross_validate_sweep.py", "--dims", "3"])
    assert sweep.main() == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "     DISAGREE axiom {1,2} m=0: predicted uniform, observed mixed",
        "1 disagreements",
    ]


def test_cross_validate_sweep_builds_cells_only_where_they_disagree():
    proc = run_script("cross_validate_sweep.py", "--dims", "11", "--tol", "1e-20")
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[1].split()[:3] == ["11", "1584", "1552"]
    disagreeing = [line for line in lines if line.startswith("     DISAGREE axiom {")]
    assert len(disagreeing) == len(set(disagreeing)) == proc.stdout.count("DISAGREE") == 1552
    assert lines[-1] == "1552 disagreements"
