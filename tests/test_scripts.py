"""Smoke test of the experiment scripts in scripts/: each main() runs to
exit 0, and the quantization study's rows stay within their bounds. The
README's library tour runs as written."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scripts_run(capsys):
    for name in ("run_benchmark", "sweep_oversampling", "sweep_quantization"):
        capsys.readouterr()
        assert _load(name).main([]) == 0, name
    # sweep_quantization rows: bits, q, MSE_FD
    rows = {
        cells[0]: float(cells[2])
        for cells in (line.split() for line in capsys.readouterr().out.splitlines()[1:])
    }
    assert rows["none"] <= 1e-10
    q = 2.0 / 2**8
    assert rows["8"] <= 100 * q * q / 12


def test_readme_library_tour():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    run = subprocess.run(
        [sys.executable, "-c", block], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    assert run.returncode == 0, run.stderr
    # the tour prints the calibrated MSE last
    assert float(run.stdout.split()[-1]) < 1e-20
