"""The README's code runs as written: the library tour, and every
``modsample`` command of its CLI and Experiments sections, whose stated
results hold."""

import contextlib
import csv
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from modsample import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def test_readme_library_tour():
    block = README.split("```python\n", 1)[1].split("```", 1)[0]
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    run = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    assert run.returncode == 0, run.stderr
    # the tour prints the calibrated MSE last
    assert float(run.stdout.split()[-1]) < 1e-20


def _commands():
    """The arguments of each ``modsample`` line in the sh blocks of the CLI
    and Experiments sections, continuation lines joined."""
    text = README.split("\n## CLI\n", 1)[1].split("\n## Tests\n", 1)[0]
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["modsample"]:
                yield argv[1:]


@pytest.fixture(scope="module")
def readme_runs(tmp_path_factory):
    """(root, runs): each README command run in order through cli.main,
    its --output-dir and --input moved under root, as (argv, exit code,
    stdout)."""
    root = tmp_path_factory.mktemp("readme")
    runs = []
    for argv in _commands():
        argv = [
            str(root / arg) if flag in ("--output-dir", "--input") else arg
            for flag, arg in zip([None] + argv, argv)
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        runs.append((argv, code, out.getvalue()))
    return root, runs


def _sweep_rows(root, name):
    with (root / "out" / name / "sweep.csv").open() as fh:
        return {float(row["value"]): row for row in csv.DictReader(fh)}


def _stdout_of(runs, command):
    return [out for argv, _, out in runs if argv[0] == command]


def test_every_readme_command_exits_0(readme_runs):
    _, runs = readme_runs
    assert {argv[0] for argv, _, _ in runs} == {"bounds", "simulate", "recover", "sweep"}
    assert [(argv, code) for argv, code, _ in runs if code != 0] == []


def test_quantization_recipe(readme_runs):
    root, _ = readme_runs
    rows = _sweep_rows(root, "bits")
    assert sorted(rows) == [6, 8, 10, 12, 14]
    mse = [float(rows[bits]["MSE_FD"]) for bits in sorted(rows)]
    assert mse == sorted(mse, reverse=True)
    q = 2.0 / 2**8
    assert mse[1] <= 100 * q * q / 12
    (unquantized,) = _sweep_rows(root, "unquantized").values()
    assert unquantized["config.source.bits"] == ""
    assert float(unquantized["MSE_FD"]) <= 1e-10


def test_oversampling_recipe(readme_runs):
    root, runs = readme_runs
    assert any("folds=8)" in out for out in _stdout_of(runs, "simulate"))
    assert any("K_min = 26\n" in out for out in _stdout_of(runs, "bounds"))
    rows = _sweep_rows(root, "oversampling")
    assert "below the recovery bound" in rows.pop(16.0)["error"]
    assert min(rows) == 26
    for row in rows.values():
        assert row["error"] == "" and float(row["MSE_FD"]) <= 1e-20, row


def test_baseline_rate_recipe(readme_runs):
    root, _ = readme_runs
    rows = _sweep_rows(root, "rates")
    assert sorted(rows) == [40, 56, 72, 96, 128]
    for K, row in rows.items():
        assert row["error"] == "" and float(row["MSE_FD"]) <= 1e-20, row
        if K < 72:
            assert row["MSE_US"] == "" and "T*Omega*e" in row["US_error"], row
        else:
            assert row.get("US_error", "") == "" and float(row["MSE_US"]) <= 1e-20, row


def test_fold_count_recipe(readme_runs):
    root, _ = readme_runs
    rows = _sweep_rows(root, "fold_count")
    assert sorted(rows) == [0, 29, 30]
    assert [rows[M]["error"] for M in (0, 29, 30)] == ["", "", ""]
    residual = {M: float(row["fit_residual"]) for M, row in rows.items()}
    mse = {M: float(row["MSE_FD"]) for M, row in rows.items()}
    # each stated figure, to half a unit in its last digit
    assert residual[0] == pytest.approx(57.7, abs=0.05)
    assert residual[29] == pytest.approx(11.0, abs=0.05)
    assert residual[30] <= 1e-12
    assert mse[0] == pytest.approx(2.48, abs=0.005)
    assert mse[29] == pytest.approx(0.0399, abs=0.00005)
    assert mse[30] <= 1e-29
    # no spikes are fitted at M = 0, so only its estimator is empty; M = 29
    # and 30 leave far more than 3M+1 out-of-band bins, so the l1 fit runs
    assert [rows[M]["support_estimator"] for M in (0, 29, 30)] == ["", "inband_l1", "inband_l1"]


def test_default_p_inflation_recipe(readme_runs):
    root, _ = readme_runs
    lines = (root / "out" / "rec_default" / "metrics.txt").read_text().splitlines()
    # the CLI widens P = 6 to ceil(6 * 1.2) = 8 and echoes the widened index
    assert "P_used = 8" in lines and "config.P_used = 8" in lines
    assert not any(line.startswith("config.p_inflation") for line in lines)
