"""Unit tests for the experiment harness: capture I/O, orchestration,
metrics emission and parameter sweeps."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modsample import (
    CaptureFormatError,
    NonIdealityConfig,
    UniformGrid,
    finite_difference,
    fourier_prony_recover,
    round_beta,
    usf_recover,
)
from modsample import harness
from modsample.harness import (
    CaptureFile,
    ExperimentConfig,
    SyntheticSource,
    _write_table,
    load_capture,
    realized_fold_count,
    run_experiment,
    sweep,
    synthesize_measurement,
    write_capture,
)


def _write(tmp_path, text, name="capture.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


THREE_COL = """\
# tau = 0.4
time,truth,modulo
0.0,1.0,0.2
0.1,2.0,0.4
0.2,3.0,0.6
0.3,4.0,0.8
"""


class TestLoadCapture:
    def test_three_columns(self, tmp_path):
        cap = load_capture(_write(tmp_path, THREE_COL))
        assert cap.K == 4
        assert cap.T == pytest.approx(0.1)
        np.testing.assert_allclose(cap.ground_truth, [1, 2, 3, 4])
        np.testing.assert_allclose(cap.modulo, [0.2, 0.4, 0.6, 0.8])
        assert cap.metadata["tau"] == "0.4"

    def test_two_columns(self, tmp_path):
        cap = load_capture(_write(tmp_path, "time,modulo\n0.0,1.0\n0.5,2.0\n"))
        assert cap.ground_truth is None
        assert cap.T == pytest.approx(0.5)

    def test_jittered_timestamps_rejected(self, tmp_path):
        path = _write(tmp_path, "time,modulo\n0.0,1.0\n0.1,2.0\n0.2002,3.0\n")
        with pytest.raises(CaptureFormatError):
            load_capture(path)

    def test_bad_header_reports_line(self, tmp_path):
        path = _write(tmp_path, "# note\nt,y\n0.0,1.0\n")
        with pytest.raises(CaptureFormatError) as err:
            load_capture(path)
        assert err.value.line == 2

    def test_bad_cell_reports_line(self, tmp_path):
        path = _write(tmp_path, "time,modulo\n0.0,1.0\n0.1,oops\n")
        with pytest.raises(CaptureFormatError) as err:
            load_capture(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = _write(tmp_path, f"time,modulo\n0.0,1.0\n0.1,{cell}\n0.2,0.5\n")
        with pytest.raises(CaptureFormatError) as err:
            load_capture(path)
        assert err.value.line == 3

    def _assert_bad_metadata(self, tmp_path, key, value):
        text = f"# note\n# {key} = {value}\ntime,modulo\n0.0,1.0\n0.1,2.0\n"
        with pytest.raises(CaptureFormatError) as err:
            load_capture(_write(tmp_path, text))
        assert err.value.line == 2
        assert str(err.value).startswith(f"line 2: {key} must be")

    @pytest.mark.parametrize("value", ["oops", "nan", "inf", "0", "-0.4"])
    def test_bad_tau_reports_line(self, tmp_path, value):
        self._assert_bad_metadata(tmp_path, "tau", value)

    @pytest.mark.parametrize("value", ["abc", "nan", "-inf"])
    def test_bad_dc_offset_reports_line(self, tmp_path, value):
        self._assert_bad_metadata(tmp_path, "dc_offset", value)

    @pytest.mark.parametrize("value", ["2.5", "-1", "many", "1e3"])
    def test_bad_folds_reports_line(self, tmp_path, value):
        self._assert_bad_metadata(tmp_path, "folds", value)

    def test_valid_metadata_kept_as_text(self, tmp_path):
        text = "# tau = 2e-1\n# dc_offset = -0.5\n# folds = 0\ntime,modulo\n0.0,1.0\n0.1,2.0\n"
        cap = load_capture(_write(tmp_path, text))
        assert cap.metadata["tau"] == "2e-1" and cap.metadata["folds"] == "0"
        np.testing.assert_allclose(cap.modulo, [1.5, 2.5])

    def test_dc_offset_subtracted(self, tmp_path):
        text = "# dc_offset = 0.5\ntime,modulo\n0.0,1.0\n0.1,2.0\n"
        cap = load_capture(_write(tmp_path, text))
        np.testing.assert_allclose(cap.modulo, [0.5, 1.5])

    def test_needs_rows(self, tmp_path):
        with pytest.raises(CaptureFormatError):
            load_capture(_write(tmp_path, "time,modulo\n0.0,1.0\n"))

    @pytest.mark.parametrize("data, line, byte", [
        (b"# note \xb5s\ntime,modulo\n0,1\n0.1,2\n", 1, "0xb5"),  # a Latin-1 micro sign
        (b"time,modulo\n0,1\n0.1,2\n\n# gain \xff\n", 5, "0xff"),
    ])
    def test_byte_that_is_not_utf8_reports_line(self, tmp_path, data, line, byte):
        path = tmp_path / "capture.csv"
        path.write_bytes(data)
        with pytest.raises(CaptureFormatError) as err:
            load_capture(path)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: byte {byte} is not UTF-8 text"

    def test_round_trip(self, tmp_path):
        time = np.arange(5) * 0.25
        modulo = np.array([0.1, -0.2, 0.3, -0.4, 0.5])
        truth = modulo + 2.0
        path = tmp_path / "rt.csv"
        write_capture(path, time, modulo, truth=truth, metadata={"tau": repr(1.25)})
        cap = load_capture(path)
        np.testing.assert_array_equal(cap.time, time)
        np.testing.assert_array_equal(cap.modulo, modulo)
        np.testing.assert_array_equal(cap.ground_truth, truth)

    def test_tau_must_match_time_column(self, tmp_path):
        # K*T = 0.4; the header may differ by 1e-6 relative, as the time steps may
        for tau in ("0.4", "0.40000039", "4e-1"):
            cap = load_capture(_write(tmp_path, THREE_COL.replace("0.4\n", tau + "\n", 1)))
            assert cap.metadata["tau"] == tau
        for tau in ("0.8", "0.40000041", "0.2"):
            text = "# note\n" + THREE_COL.replace("0.4\n", tau + "\n", 1)
            with pytest.raises(CaptureFormatError) as err:
                load_capture(_write(tmp_path, text))
            assert err.value.line == 2
            assert str(err.value).startswith(f"line 2: tau = {tau} does not match")

    def test_plain_body_parsed_in_bulk(self, tmp_path, monkeypatch):
        def no_loop(*args):
            raise AssertionError("row loop ran")

        monkeypatch.setattr(harness, "_row_loop", no_loop)
        cap = load_capture(_write(tmp_path, THREE_COL))
        np.testing.assert_array_equal(cap.time, [0.0, 0.1, 0.2, 0.3])
        with pytest.raises(AssertionError, match="row loop ran"):
            load_capture(_write(tmp_path, THREE_COL + "# folds = 2\n"))


def _load_capture_by_rows(path) -> CaptureFile:
    """The row-by-row parser that load_capture replaced, kept as the
    reference of its bulk parse (less the tau check, which it lacked)."""
    path = Path(path)
    metadata: dict = {}
    header = None
    rows = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    key, value = key.strip(), value.strip()
                    if key in harness._METADATA_RULES:
                        parse, valid, what = harness._METADATA_RULES[key]
                        try:
                            ok = valid(parse(value))
                        except ValueError:
                            ok = False
                        if not ok:
                            raise CaptureFormatError(
                                f"{key} must be {what}, got {value!r}", line=lineno
                            )
                    metadata[key] = value
                continue
            if header is None:
                header = [c.strip().lower() for c in line.split(",")]
                if header not in (["time", "truth", "modulo"], ["time", "modulo"]):
                    raise CaptureFormatError(
                        f"unsupported header {header!r}", line=lineno
                    )
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise CaptureFormatError(
                    f"expected {len(header)} columns, got {len(cells)}", line=lineno
                )
            try:
                row = [float(c) for c in cells]
            except ValueError as exc:
                raise CaptureFormatError(str(exc), line=lineno) from exc
            if not all(math.isfinite(v) for v in row):
                raise CaptureFormatError("non-finite sample", line=lineno)
            rows.append(row)
    if header is None or len(rows) < 2:
        raise CaptureFormatError("capture needs a header and at least two rows")
    data = np.asarray(rows, dtype=float)
    time = data[:, 0]
    steps = np.diff(time)
    T = float(np.median(steps))
    if T <= 0 or np.max(np.abs(steps - T)) > 1e-6 * abs(T):
        raise CaptureFormatError("timestamps are not on a uniform grid")
    modulo = data[:, header.index("modulo")]
    if "dc_offset" in metadata:
        modulo = modulo - float(metadata["dc_offset"])
    truth = data[:, 1] if "truth" in header else None
    metadata.setdefault("tau", repr(len(time) * T))
    metadata["T"] = T
    return CaptureFile(time=time, modulo=modulo, ground_truth=truth, metadata=metadata)


def _outcome(load, path):
    """What `load` makes of a file: its arrays as bytes and its metadata
    (T as bytes), or the type, line and text of the error it raises."""
    try:
        cap = load(path)
    except CaptureFormatError as exc:
        return "error", exc.line, str(exc)
    arrays = [cap.time, cap.modulo, cap.ground_truth]
    meta = dict(cap.metadata, T=np.float64(cap.T).tobytes())
    return [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in arrays], meta


_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                     0.1, 1.7976931348623157e308, -123456789.12345678]),
)
# float() texts of a value: 17 digits, shortest, exponent forms, and
# rounded forms of values that cannot round up to inf
_EXACT_FORMS = st.sampled_from(["%.17g", "%r", "%.16e", "%.16E", "%+.17g"])
_CELLS = st.one_of(
    st.tuples(_EXACT_FORMS, _VALUES),
    st.tuples(st.sampled_from(["%.3e", "%g", "%.1f", "%.0E"]), st.floats(-1e300, 1e300)),
).map(lambda fv: fv[0] % fv[1])


@st.composite
def _capture_texts(draw):
    """A valid capture: uniform time column, 2 or 3 columns, metadata, and
    the text variations the row loop accepts."""
    ncols = draw(st.sampled_from([2, 3]))
    K = draw(st.integers(2, 24))
    T = draw(st.sampled_from([0.1, 0.25, 1e-6, 3.0, 1 / 1024, 2.5e-9]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    pad = st.sampled_from(["", " ", "  ", "\t", " \t ", "\x0c", "\u00a0"])
    lines = draw(st.lists(st.sampled_from(
        ["# note", "#", "", f"# tau = {K * T!r}", "# folds = 3", "# dc_offset = -0.25",
         "# lambda = 1"]), max_size=4))
    header = "time,truth,modulo" if ncols == 3 else "time,modulo"
    lines.append(draw(pad) + header + draw(pad))
    between = draw(st.booleans())
    for k in range(K):
        cells = [draw(_EXACT_FORMS) % (k * T)] + [draw(_CELLS) for _ in range(ncols - 1)]
        lines.append(",".join(draw(pad) + c + draw(pad) for c in cells))
        if between and draw(st.integers(0, 3)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "# between rows", "# folds = 1"])))
    text = newline.join(lines)
    return text + newline if draw(st.booleans()) else text


_TWO = "time,modulo\n"


class TestLoadCaptureMatchesRowLoop:
    @given(text=_capture_texts())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_valid_captures_bitwise(self, tmp_path, text):
        path = tmp_path / "capture.csv"
        path.write_bytes(text.encode())
        expected = _outcome(_load_capture_by_rows, path)
        assert expected[0] != "error", expected
        assert _outcome(load_capture, path) == expected

    @pytest.mark.parametrize(
        "text",
        [
            _TWO + "0.0,1.0\n0.1,oops\n0.2,3.0\n",  # bad cell
            _TWO + "0.0,1.0\n\n# c\n0.1,2.0\n0.2,x\n",  # bad cell after skipped lines
            _TWO + "0.0,1.0\r\n0.1,1e\r\n0.2,3.0\r\n",  # bad cell, CRLF
            _TWO + "0.0,1.0\n0.1,2.0,3.0\n",  # too many columns
            _TWO + "0.0,1.0\n0.1\n0.2,3.0\n",  # too few columns
            _TWO + "0.0,1.0\n0.1,2.0,\n",  # trailing comma
            _TWO + "0.0,1.0\n0.1,\n",  # empty cell
            _TWO + "0.0,1.0\n0.1,nan\n0.2,3.0\n",
            _TWO + "0.0,1.0\n0.1,inf\n0.2,3.0\n",
            _TWO + "0.0,1.0\n0.1,-inf\n0.2,3.0\n",
            _TWO + "0.0,1.0\n0.1,-Infinity\n",
            _TWO + "0.0,1.0\n0.1,1e400\n",  # overflows to inf
            _TWO + "0.0,1.0\n",  # one row
            _TWO + "\n\n",  # no rows
            _TWO,  # no body
            _TWO + "0.0,1.0\n0.1,2.0\n# folds = 2.5\n",  # bad metadata after the rows
            _TWO + "0.0,1.0\n0.1,0x10\n",  # float() takes no hex
            _TWO + "0.0,1.0\n0.1,\"2\"\n",
            _TWO + "0.0,1.0\n0.1,2\x00\n",
            _TWO + "0.0,1.0\n0.1,2 3\n",
            _TWO + "0.0,1.0\n   \n0.1,2.0\n0.3,2.0\n",  # whitespace line skipped, then off-grid
            _TWO + "0.0,1.0\x0c\n0.1,oops\n",  # only \n, \r\n and \r end a line
            "time,truth,modulo\n0.0,1.0\n0.1,2.0\n",  # two columns under three
            "time,truth,modulo\n0.0,1.0,2.0\n0.1,2.0\n",
        ],
    )
    def test_malformed_bodies_raise_alike(self, tmp_path, text):
        path = _write(tmp_path, "# note\n" + text)
        expected = _outcome(_load_capture_by_rows, path)
        assert expected[0] == "error"
        assert _outcome(load_capture, path) == expected

    @pytest.mark.parametrize(
        "body",
        [
            "0.0,1_0\n0.1,2.0\n",  # float() takes digit separators, loadtxt does not
            "0.0,\u0661\u0660\n0.1,2.0\n",  # and non-ASCII digits
            "0.0,1.0\n\u3000\n0.1,2.0\n",  # a line of non-ASCII whitespace is blank
            "0.0,1.0\n# folds = 2\n0.1,2.0\n",  # metadata between rows is read
            "0.0\u2028,\u00a01.0\x0c\n0.1,2.0\x1c\n",  # cells padded with other whitespace
        ],
    )
    def test_loop_only_syntax_accepted_alike(self, tmp_path, body):
        path = _write(tmp_path, _TWO + body)
        expected = _outcome(_load_capture_by_rows, path)
        assert expected[0] != "error", expected
        assert _outcome(load_capture, path) == expected


def _savetxt_table(path, columns, metadata=None):
    """The np.savetxt writer that _write_table replaced: the oracle of its
    bytes."""
    lines = [f"# {key} = {harness._fmt(value)}" for key, value in (metadata or {}).items()]
    lines.append(",".join(columns))
    fmt = ",".join(
        "" if col is None else "%d" if np.asarray(col).dtype.kind in "iu" else "%.17g"
        for col in columns.values()
    )
    data = np.column_stack([col for col in columns.values() if col is not None])
    np.savetxt(path, data, fmt=fmt, delimiter=",", header="\n".join(lines), comments="")


_MAGNITUDES = st.builds(
    lambda m, e: m * 10.0 ** e,
    st.floats(-10, 10, allow_nan=False), st.integers(-300, 299),
)


@st.composite
def _tables(draw):
    K = draw(st.integers(1, 12))
    kinds = draw(st.lists(st.sampled_from(["int", "float", "none"]), min_size=1, max_size=6))
    if all(kind == "none" for kind in kinds):
        kinds.append("float")
    columns = {}
    for i, kind in enumerate(kinds):
        if kind == "int":
            values = draw(st.lists(st.integers(-2**53, 2**53), min_size=K, max_size=K))
            columns[f"c{i}"] = np.array(values, dtype=np.int64)
        elif kind == "float":
            values = draw(st.lists(st.one_of(_VALUES, _MAGNITUDES), min_size=K, max_size=K))
            columns[f"c{i}"] = np.array(values)
        else:
            columns[f"c{i}"] = None
    metadata = draw(st.none() | st.dictionaries(
        st.sampled_from(["tau", "P", "note"]),
        st.one_of(st.none(), st.integers(), _VALUES, st.text("ab =#", max_size=4))))
    return columns, metadata


class TestWriteTable:
    @given(table=_tables())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_match_savetxt(self, tmp_path, table):
        columns, metadata = table
        _write_table(tmp_path / "new.csv", columns, metadata)
        _savetxt_table(tmp_path / "old.csv", columns, metadata)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("K", [1, 5])
    def test_edge_columns_match_savetxt(self, tmp_path, K):
        k = np.arange(K)
        columns = {
            "k": k, "empty": None, "zero": -0.0 * (k + 1), "tiny": 1e-300 * (k + 1),
            "huge": -1e300 * (k + 1), "sub": 5e-324 * (k + 1), "last": None,
        }
        _write_table(tmp_path / "new.csv", columns, {"tau": 0.1})
        _savetxt_table(tmp_path / "old.csv", columns, {"tau": 0.1})
        text = (tmp_path / "new.csv").read_text()
        assert text == (tmp_path / "old.csv").read_text()
        assert text.splitlines()[2] == "0,,-0,1e-300,-1.0000000000000001e+300,4.9406564584124654e-324,"


class TestSynthesizeMeasurement:
    def _source(self, **kwargs):
        defaults = dict(P=3, tau=1.0, K=64, amplitude=4.0, seed=8, threshold=1.0)
        defaults.update(kwargs)
        return SyntheticSource(**defaults)

    def test_source_owns_the_grid(self):
        assert self._source(tau=2.0).grid == UniformGrid(T=2.0 / 64, K=64)
        for K in (0, -3):
            with pytest.raises(ValueError, match="K must be positive"):
                self._source(K=K)

    def test_ideal_decomposition(self):
        gamma, y, spec = synthesize_measurement(self._source())
        assert gamma.grid == y.grid == self._source().grid
        r = spec.values()
        np.testing.assert_allclose(gamma.values - r, y.values, atol=1e-12)
        assert np.all(np.abs(y.values) <= 1.0)

    def test_quantization_applied(self):
        _, y, _ = synthesize_measurement(self._source(bits=8))
        q = 2.0 / 256
        np.testing.assert_allclose(
            (y.values / q - 0.5) - np.round(y.values / q - 0.5),
            np.zeros(64),
            atol=1e-9,
        )

    def test_nonideality_deterministic(self):
        src = self._source(
            nonideality=NonIdealityConfig(delay_max_samples=2, threshold_jitter=0.2)
        )
        a = synthesize_measurement(src)
        b = synthesize_measurement(src)
        np.testing.assert_array_equal(a[1].values, b[1].values)
        np.testing.assert_array_equal(a[2].k, b[2].k)
        np.testing.assert_array_equal(a[2].c, b[2].c)

    def test_realized_fold_count_counts_wrap(self):
        from modsample.folding import ResidueSpec

        grid = UniformGrid(T=0.1, K=10)
        # one jump that never returns: circular differencing adds the wrap
        spec = ResidueSpec(k=[3], c=[2.0], K=10, tau=1.0)
        assert realized_fold_count(spec, grid) == 2

    def test_realized_fold_count_rejects_other_grid(self):
        from modsample.folding import ResidueSpec

        spec = ResidueSpec(k=[3], c=[2.0], K=10, tau=1.0)
        with pytest.raises(ValueError, match="K=10"):
            realized_fold_count(spec, UniformGrid(T=0.1, K=12))


class TestExperimentConfig:
    _SRC = SyntheticSource(P=1, tau=1.0, K=10, amplitude=1.0, seed=0, threshold=1.0)

    def test_exactly_one_source(self):
        with pytest.raises(ValueError):
            ExperimentConfig()
        with pytest.raises(ValueError):
            ExperimentConfig(source=self._SRC, capture_path="x.csv")

    def test_lambda_grid_needs_the_baseline(self):
        with pytest.raises(ValueError, match="needs method 'usf' or 'both'"):
            ExperimentConfig(source=self._SRC, method="fp", lambda_grid=(0.5, 1.5, 0.1))
        for method in ("usf", "both"):
            ExperimentConfig(source=self._SRC, method=method, lambda_grid=(0.5, 1.5, 0.1))

    def test_method_and_p_inflation_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(source=self._SRC, method="bogus")
        for bad in (-0.5, float("nan")):
            with pytest.raises(ValueError, match="p_inflation must be nonnegative"):
                ExperimentConfig(source=self._SRC, p_inflation=bad)


def _synthetic_config(tmp_path=None, **kwargs):
    src = SyntheticSource(P=4, tau=1.0, K=96, amplitude=4.0, seed=3, threshold=1.0)
    defaults = dict(
        method="both",
        source=src,
        threshold=1.0,
        output_dir=str(tmp_path) if tmp_path else None,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def _read_table(path):
    """{column: cell texts} of a written table; '#' lines are skipped."""
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(lines[0].split(","))}


def _assert_cells_equal(cells, values):
    """Every cell parses to the float64 of `values`, bit for bit."""
    parsed = np.array([float(c) for c in cells])
    assert parsed.tobytes() == np.asarray(values, dtype=float).tobytes()


class TestRunExperiment:
    def test_metrics_and_files(self, tmp_path):
        metrics = run_experiment(_synthetic_config(tmp_path))
        for key in ("tau", "T", "K", "P_used", "M", "T_FD", "T_US", "K_min",
                    "DR_y", "DR_gamma", "DR_ratio", "MSE_FD", "MSE_US"):
            assert key in metrics, key
        assert float(metrics["MSE_FD"]) < 1e-10
        assert float(metrics["MSE_US"]) < 1e-10
        for name in ("metrics.txt", "reconstruction.csv", "spectrum.csv"):
            assert (tmp_path / name).exists()

    def test_metrics_echo_full_config(self, tmp_path):
        metrics = run_experiment(_synthetic_config(tmp_path))
        config_keys = [k for k in metrics if k.startswith("config.")]
        for field in ("config.method", "config.source.P", "config.source.K",
                      "config.source.seed", "config.p_inflation"):
            assert field in config_keys, field
        # the grid is the source's: echoed once, as resolved
        assert "config.T" not in metrics and "config.K" not in metrics
        assert (metrics["T"], metrics["K"]) == (1.0 / 96, 96)

    def test_deterministic_outputs(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_experiment(_synthetic_config(a_dir))
        run_experiment(_synthetic_config(b_dir))
        for name in ("reconstruction.csv", "spectrum.csv"):
            a = (a_dir / name).read_bytes()
            b = (b_dir / name).read_bytes()
            assert a == b, f"{name} not reproducible"
        # metrics echo the output dir, which differs by construction
        a_text = (a_dir / "metrics.txt").read_text().replace(str(a_dir), "")
        b_text = (b_dir / "metrics.txt").read_text().replace(str(b_dir), "")
        assert a_text == b_text

    def test_large_scale_with_quantization(self):
        # P=37, K=455 with an amplitude giving exactly 20 realized folds
        src = SyntheticSource(
            P=37, tau=1.0, K=455, amplitude=1.6, seed=0, threshold=1.0, bits=8
        )
        metrics = run_experiment(ExperimentConfig(method="fp", source=src))
        assert int(metrics["M"]) == 20
        assert float(metrics["MSE_FD"]) < 1e-3
        # same configuration without quantization is exact
        cfg_clean = ExperimentConfig(method="fp", source=replace(src, bits=None))
        assert float(run_experiment(cfg_clean)["MSE_FD"]) < 1e-10

    def test_capture_without_truth(self, tmp_path):
        src = _synthetic_config().source
        _, y, spec = synthesize_measurement(src)
        path = tmp_path / "cap.csv"
        write_capture(path, src.grid.times, y.values, metadata={"tau": repr(1.0)})
        M = realized_fold_count(spec, src.grid)
        cfg = ExperimentConfig(
            method="fp", capture_path=str(path), P_used=4, M=M,
            output_dir=str(tmp_path / "out"),
        )
        metrics = run_experiment(cfg)
        assert "MSE_FD" not in metrics
        assert "DR_ratio" not in metrics
        assert "DR_y" in metrics
        # with no truth to match, the zero-mean estimate is written as is
        recon = _read_table(tmp_path / "out" / "reconstruction.csv")
        _assert_cells_equal(recon["gamma_fd"], fourier_prony_recover(y, 4, M).gamma_hat.values)

    def test_lambda_grid_without_truth_writes_nothing(self, tmp_path):
        src = _synthetic_config().source
        _, y, spec = synthesize_measurement(src)
        path = tmp_path / "cap.csv"
        write_capture(path, src.grid.times, y.values, metadata={"tau": repr(1.0)})
        cfg = ExperimentConfig(
            method="both", capture_path=str(path), P_used=4,
            M=realized_fold_count(spec, src.grid), threshold=1.0,
            lambda_grid=(0.55, 1.45, 0.01), output_dir=str(tmp_path / "out"),
        )
        with pytest.raises(ValueError, match="capture has no truth column"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_capture_fixes_grid_and_m(self, tmp_path):
        path = _write(tmp_path, "# folds = 0\n" + THREE_COL)
        metrics = run_experiment(
            ExperimentConfig(method="fp", capture_path=str(path), P_used=0)
        )
        assert (metrics["T"], metrics["K"], metrics["M"]) == (0.1, 4, 0)
        # the config is echoed as given
        assert metrics["config.M"] is None

    def test_capture_requires_m_and_p(self, tmp_path):
        path = _write(tmp_path, THREE_COL)
        with pytest.raises(ValueError, match="M is required"):
            run_experiment(ExperimentConfig(method="fp", capture_path=str(path), P_used=1))
        with pytest.raises(ValueError, match="P_used is required"):
            run_experiment(ExperimentConfig(method="fp", capture_path=str(path), M=0))

    @pytest.mark.parametrize("method", ["fp", "both"])
    def test_tables_hold_the_recovery_arrays(self, tmp_path, method):
        cfg = _synthetic_config(tmp_path, method=method)
        run_experiment(cfg)
        src = cfg.source
        grid = src.grid
        gamma, y, spec = synthesize_measurement(src)
        fp = fourier_prony_recover(y, src.P, realized_fold_count(spec, grid))
        # the written estimates are the zero-mean ones shifted to the truth's mean
        mean = np.mean(gamma.values)
        recon = _read_table(tmp_path / "reconstruction.csv")
        assert list(recon) == ["k", "t", "y", "gamma_true", "gamma_fd",
                               "gamma_us", "residue_fd", "residue_us"]
        k = np.arange(grid.K)
        expected = {"k": k, "t": k * grid.T, "y": y.values, "gamma_true": gamma.values,
                    "gamma_fd": fp.gamma_hat.values + mean,
                    "residue_fd": fp.residue_hat.values}
        if method == "fp":
            assert set(recon["gamma_us"]) == set(recon["residue_us"]) == {""}
        else:
            us = usf_recover(
                y, src.threshold, 2 * np.pi * src.P / src.tau,
                round_beta(float(np.max(np.abs(gamma.values))), src.threshold),
            )
            expected.update(gamma_us=us.gamma_hat.values + mean,
                            residue_us=us.residue_hat.values)
        for name, values in expected.items():
            _assert_cells_equal(recon[name], values)

        spectrum = _read_table(tmp_path / "spectrum.csv")
        assert list(spectrum) == ["n", "abs_ybar_dft", "abs_residue_model_dft"]
        spikes = np.zeros(grid.K)
        spikes[fp.support] = fp.amplitudes
        ybar = finite_difference(y.values, 1, circular=True)
        _assert_cells_equal(spectrum["n"], k)
        _assert_cells_equal(spectrum["abs_ybar_dft"], [abs(b) for b in np.fft.fft(ybar)])
        _assert_cells_equal(
            spectrum["abs_residue_model_dft"], [abs(b) for b in np.fft.fft(spikes)]
        )

    def test_lambda_grid_reports_optimum(self, tmp_path):
        cfg = _synthetic_config(tmp_path, lambda_grid=(0.55, 1.45, 0.01))
        metrics = run_experiment(cfg)
        assert abs(float(metrics["lambda_opt"]) - 1.0) <= 0.01 + 1e-12
        assert float(metrics["MSE_USopt"]) < 1e-10

    def test_failure_removes_partial_outputs(self, tmp_path):
        cfg = _synthetic_config(tmp_path, method="usf", threshold=None)
        with pytest.raises(ValueError):
            run_experiment(cfg)
        assert not (tmp_path / "metrics.txt").exists()
        assert not (tmp_path / "reconstruction.csv").exists()


class TestSweep:
    def test_empty_values(self, tmp_path):
        rows = sweep(_synthetic_config(), "K", [], output_dir=str(tmp_path))
        assert rows == []
        header = (tmp_path / "sweep.csv").read_text().splitlines()
        assert header[0].startswith("axis,value,error")

    def test_k_sweep_sorted_with_failures_recorded(self, tmp_path):
        cfg = _synthetic_config(method="fp")
        rows = sweep(cfg, "K", ["128", "24", "96"], output_dir=str(tmp_path))
        assert [row["value"] for row in rows] == [24.0, 96.0, 128.0]
        # K=24 is below the recovery bound for this signal: failure in-row
        assert rows[0]["error"] != ""
        assert rows[1]["error"] == "" and rows[2]["error"] == ""
        assert float(rows[2]["MSE_FD"]) < 1e-10
        assert (tmp_path / "sweep.csv").exists()

    def test_source_axis(self):
        rows = sweep(_synthetic_config(method="fp"), "seed", [1, 2])
        assert len(rows) == 2
        assert all(row["error"] == "" for row in rows)

    def test_tau_axis_keeps_the_grid_on_one_period(self):
        rows = sweep(_synthetic_config(method="fp"), "tau", [1.0, 2.0])
        assert [row["error"] for row in rows] == ["", ""]
        assert [row["T"] for row in rows] == [1.0 / 96, 2.0 / 96]

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            sweep(_synthetic_config(), "nonsense", [1.0])
