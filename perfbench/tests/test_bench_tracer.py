"""Tracer arithmetic, and that traced runs leave modsample as they found it.

    python3 -m pytest perfbench/tests
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

modsample = run.import_modsample()
signal_model, spectral = modsample.signal_model, modsample.spectral


def test_self_time_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1, 0, False],
        ["b", 1.0, 4.0, 0, 0, False],
        ["c", 2.0, 3.0, 1, 0, True],
        ["d", 5.0, 9.0, 0, 0, False],
        ["b", 11.0, 12.0, -1, 1, False],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    summary = tracer.summarize(spans)
    assert summary["b"] == {"time_s": 4.0, "self_s": 3.0, "calls": 2, "errors": 0}
    assert summary["c"]["errors"] == 1
    assert tracer.summarize(spans, ops={1}) == {
        "b": {"time_s": 1.0, "self_s": 1.0, "calls": 1, "errors": 0}}


def _originals():
    return {(m, a): getattr(getattr(modsample, m), a)
            for m in tracer.MODULES for a in dir(getattr(modsample, m))
            if not a.startswith("_")}


def test_wrappers_are_restored_when_an_operation_raises():
    before = _originals()
    package_annihilator = modsample.annihilator
    spans = tracer.Tracer()

    def boom():
        spectral.annihilator(np.zeros((1, 1)))  # too few columns: raises

    ops = [workloads.Op("raises", 0, boom, lambda _: [])]
    records = []
    with pytest.raises(KeyError):
        with spans.installed(modsample) as wrapped:
            assert "spectral.annihilator" in wrapped
            assert modsample.annihilator is spectral.annihilator is not package_annihilator
            run.run_rounds(ops, 0.0, records, spans)
            raise KeyError("leaves the traced block by an exception")
    assert _originals() == before
    assert modsample.annihilator is package_annihilator
    assert records[0][2][0].startswith("raised ValueError")
    assert spans.spans[0][0] == "spectral.annihilator" and spans.spans[0][5]


def test_spans_nest_under_their_caller():
    g = signal_model.synthesize_random(3, 1.0, 4.0, 1)
    grid = signal_model.UniformGrid(T=1.0 / 64, K=64)
    gamma = signal_model.sample(g, grid)
    y, _ = modsample.fold_ideal(gamma, 1.0)
    spans = tracer.Tracer()
    with spans.installed(modsample):
        spans.op = 7
        modsample.recovery.fourier_prony_recover(y, 3, 8)
    names = [s[0] for s in spans.spans]
    assert names[0] == "recovery.fourier_prony_recover"
    ann = names.index("spectral.annihilator")
    assert spans.spans[ann][3] == 0 and spans.spans[ann][4] == 7


def test_a_removed_function_is_absent_not_an_error():
    fake = types.ModuleType("fakepkg")
    for name in tracer.MODULES:
        mod = types.ModuleType(f"fakepkg.{name}")
        setattr(fake, name, mod)

    def annihilator(x):
        return x

    annihilator.__module__ = "fakepkg.spectral"
    fake.spectral.annihilator = annihilator
    spans = tracer.Tracer()
    with spans.installed(fake) as wrapped:
        assert wrapped == ["spectral.annihilator"]
        fake.spectral.annihilator(1)
    assert fake.spectral.annihilator is annihilator
    values = run.per_layer_values(
        ["spectral.annihilator.calls", "spectral.roots_and_instants.time_s"],
        tracer.summarize(spans.spans), 1)
    assert values == {"spectral.annihilator.calls": 1.0,
                      "spectral.roots_and_instants.time_s": 0.0}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    pct, value = run.tail(list(range(50)))
    assert pct == 80.0 and value == 39


def test_rounds_are_whole_and_reach_the_tail_minimum():
    ops = [workloads.Op(str(i), 0, lambda: None, lambda _: []) for i in range(7)]
    records = []
    run.run_rounds(ops, 0.0, records, min_ops=run.TAIL_MIN_OPS)
    assert len(records) == 42
