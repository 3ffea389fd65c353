"""Smoke test of the experiment scripts in scripts/: each main() runs to
exit 0, and the quantization study's rows stay within their bounds."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
