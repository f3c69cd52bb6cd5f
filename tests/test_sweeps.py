"""The README's two sweeps, as the CLI loops that do them: `cross-validate`
at each small prime, and every (axiom, measurement) cell of d = 3 as a
seeded `run` with its own seed. Bad input to either loop fails in the CLI
with one line and no traceback."""

import subprocess
import sys

import pytest

from test_cli import invoke_machine, module_env


@pytest.mark.parametrize("d, cells", [(2, 18), (3, 48), (5, 180), (7, 448)])
def test_cross_validate_sweep_small_primes_agree(capsys, d, cells):
    code, env = invoke_machine(capsys, "cross-validate", "--d", str(d))
    assert code == 0
    assert len(env["payload"]["cells"]) == cells
    assert env["payload"]["disagreements"] == 0


def sampling_sweep(capsys, seed=None) -> list[tuple[int, int, int, dict]]:
    """(a, b, m, uniformity) per cell of d = 3 at 10000 trials, in the
    README's loop order; the cells take seeds 1, 2, ... unless one `seed`
    is given for all of them."""
    cells = []
    for a in range(4):
        for b in range(3):
            for m in range(4):
                s = len(cells) + 1 if seed is None else seed
                code, env = invoke_machine(capsys, "run", "--d", "3", "--axiom", f"{a},{b}",
                                           "--measure", str(m), "--trials", "10000",
                                           "--seed", str(s))
                assert code == 0
                cells.append((a, b, m, env["payload"]["uniformity"]))
    return cells


def test_sampling_sweep_rejects_exactly_the_point_masses(capsys):
    cells = sampling_sweep(capsys)
    assert len(cells) == 48
    verdicts = {(a, b, m): u["verdict"] for a, b, m, u in cells}
    assert verdicts == {
        (a, b, m): "RejectUniform" if m == a else "ConsistentWithUniform"
        for a, b, m, _ in cells
    }
    assert sum(verdict == "RejectUniform" for verdict in verdicts.values()) == 12


def test_uniform_cells_that_share_a_seed_repeat_one_statistic(capsys):
    def uniform_statistics(seed):
        return [u["chi_square_statistic"] for a, _, m, u in sampling_sweep(capsys, seed) if m != a]

    assert len(set(uniform_statistics(None))) == 36
    assert set(uniform_statistics(42)) == {0.395}


RUN = ["run", "--d", "3", "--axiom", "0,0", "--measure", "1", "--trials", "10000", "--seed", "1"]


def with_option(argv, option, value):
    argv = list(argv)
    argv[argv.index(option) + 1] = value
    return argv


# an argv of either loop, its exit code and the one line it prints, on
# stderr for a usage error and on stdout otherwise
SWEEP_INPUT_LINES = [
    (with_option(RUN, "--seed", "-1"), 1,
     "usage error: argument --seed: seed must lie in [0, 2**64), got -1"),
    (with_option(RUN, "--seed", str(2**64)), 1,
     f"usage error: argument --seed: seed must lie in [0, 2**64), got {2**64}"),
    (with_option(RUN, "--d", "4"), 1, "error: d must be prime and >= 2, got 4"),
    (with_option(RUN, "--d", "37"), 0,
     "chi-square skipped: no embedded chi-square critical value for df = 36"),
    (with_option(RUN, "--trials", "10"), 0, "chi-square skipped: needs at least 15 trials for a verdict"),
    (["cross-validate", "--d", "4"], 1, "error: d must be prime and >= 2, got 4"),
    (["cross-validate", "--d", "37"], 1, "error: cross-validate is limited to d <= 31, got d = 37"),
    (["cross-validate", "--d", ""], 1, "usage error: argument --d: invalid int value: ''"),
    (["cross-validate", "--d", "3", "--tol", "nan"], 1,
     "usage error: argument --tol: tolerance must be finite and > 0, got 'nan'"),
    (with_option(RUN, "--d", "1010"), 1, "error: run is limited to d <= 1009, got d = 1010"),
    (with_option(RUN, "--d", str(2**61 - 1)), 1,
     f"error: run is limited to d <= 1009, got d = {2**61 - 1}"),
    (with_option(RUN, "--trials", "10000001"), 1,
     "error: run is limited to trials <= 10000000, got trials = 10000001"),
    (["cross-validate", "--d", str(2**61 - 1)], 1,
     f"error: cross-validate is limited to d <= 31, got d = {2**61 - 1}"),
]


@pytest.mark.parametrize("argv, code, line", SWEEP_INPUT_LINES,
                         ids=[" ".join(argv) for argv, _, _ in SWEEP_INPUT_LINES])
def test_sweep_input_reads_one_line_without_traceback(argv, code, line):
    proc = subprocess.run([sys.executable, "-m", "mublogic", *argv],
                          capture_output=True, text=True, env=module_env(), timeout=60)
    assert proc.returncode == code
    if line.startswith("usage error: "):
        assert (proc.stdout, proc.stderr) == ("", line + "\n")
    else:
        assert proc.stderr == ""
        assert line + "\n" in proc.stdout
