import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import netreduce
from netreduce.io import _CHUNK_CELLS, append_matrix_csv, read_matrix_csv, staged_files, write_matrix_csv


def _old_fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _old_csv(matrix):
    """The cell-by-cell writer the CSV format was first defined by."""
    m = np.atleast_2d(np.asarray(matrix))
    return "".join(",".join(_old_fmt(v) for v in row) + "\n" for row in m)


def _format_csv(matrix, columns):
    """Repeated-column lines built by one n-field ``str.format`` each."""
    m = np.atleast_2d(np.asarray(matrix))
    code = "%d" if m.dtype.kind in "biu" else "%.17g"
    row = ",".join([code] * m.shape[1])
    picked = np.arange(m.shape[1])[np.asarray(columns, dtype=int)]
    line = ",".join(f"{{{c}}}" for c in picked.tolist()) + "\n"
    return "".join(line.format(*(row % tuple(r.tolist())).split(",")) for r in m)


def _written(tmp_path, matrix, columns=None, lead=None):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, matrix, columns=columns, lead=lead)
    return path.read_text()


EDGE_FLOATS = [
    0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324,
    0.1, 1 / 3, float(2**53 + 1), 1e16, 1e17, 1e300,
]


class TestWriteMatrixCsv:
    def test_edge_floats(self, tmp_path):
        m = np.array([EDGE_FLOATS, [-v for v in EDGE_FLOATS]])
        text = _written(tmp_path, m)
        assert text == _old_csv(m)
        assert text.splitlines()[0] == (
            "0,-0,nan,inf,-inf,4.9406564584124654e-324,0.10000000000000001,"
            "0.33333333333333331,9007199254740992,10000000000000000,1e+17,"
            "1.0000000000000001e+300"
        )

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(0).integers(0, 2**63, size=(50, 20), dtype=np.int64)
        m = bits.view(np.float64)
        text = _written(tmp_path, m)
        assert text == _old_csv(m)
        finite = np.isfinite(m)
        np.testing.assert_array_equal(read_matrix_csv(tmp_path / "m.csv")[finite], m[finite])

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_integer_dtypes(self, tmp_path, dtype):
        top = min(2**62, np.iinfo(dtype).max)
        m = np.array([[0, 1, top], [top - 1, 7, 0]], dtype=dtype)
        if np.iinfo(dtype).min < 0:
            m[1, 2] = -top
        text = _written(tmp_path, m)
        assert text == _old_csv(m)
        assert text.splitlines()[0] == f"0,1,{top}"

    def test_bool(self, tmp_path):
        m = np.array([[True, False], [False, True]])
        assert _written(tmp_path, m) == _old_csv(m) == "1,0\n0,1\n"

    def test_one_dimensional_is_one_row(self, tmp_path):
        v = np.array([1.5, -2.0, 1 / 3])
        assert _written(tmp_path, v) == _old_csv(v) == "1.5,-2,0.33333333333333331\n"

    def test_zero_columns(self, tmp_path):
        m = np.zeros((3, 0))
        assert _written(tmp_path, m) == _old_csv(m) == "\n\n\n"

    def test_zero_rows(self, tmp_path):
        assert _written(tmp_path, np.zeros((0, 4))) == ""

    def test_repeated_and_reordered_columns(self, tmp_path):
        m = np.array([[0.1, 1 / 3, -0.0], [np.nan, 2.5, 1e17], [5e-324, -np.inf, 7.0]])
        columns = [2, 0, 0, 1, 2, 2, -3, 1]
        assert _written(tmp_path, m, columns) == _old_csv(m[:, columns])

    def test_columns_on_integers_and_empty_selection(self, tmp_path):
        m = np.arange(6, dtype=np.int64).reshape(2, 3) * 2**60
        assert _written(tmp_path, m, [1, 1, 0]) == _old_csv(m[:, [1, 1, 0]])
        assert _written(tmp_path, m, []) == "\n\n"

    @pytest.mark.parametrize(
        "columns",
        [[2, 0, 0, 1, 2, 2, -3, 1], [2, 1, 0], [1], [0, 0, 0, 0], []],
        ids=["repeated", "reordered", "single", "one-column-repeated", "empty"],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_columns_match_format_form(self, tmp_path, columns, dtype):
        m = np.array([[0.1, 1 / 3, -0.0], [np.nan, 2.5, 1e17], [5e-324, -np.inf, 7.0]])
        if dtype is np.int64:
            m = np.arange(9, dtype=np.int64).reshape(3, 3) - 2**62
        assert _written(tmp_path, m, columns) == _format_csv(m, columns)

    def test_column_out_of_range(self, tmp_path):
        with pytest.raises(IndexError):
            write_matrix_csv(tmp_path / "m.csv", np.zeros((2, 3)), columns=[0, 3])

    @pytest.mark.parametrize("columns", [None, [0, 2, 2, 1, 0], []])
    @pytest.mark.parametrize(
        "lead_dtype,dtype",
        [(np.float64, np.float64), (np.int64, np.int64), (np.float64, np.int64), (np.int64, bool)],
    )
    def test_lead_column_matches_column_stack(self, tmp_path, columns, lead_dtype, dtype):
        m = np.array([[0.1, -0.0], [np.nan, 1e17], [5e-324, -np.inf]])
        if dtype is not np.float64:
            m = np.array([[1, 0], [-3, 2**40], [0, 7]]).astype(dtype)
        lead = np.array([0.0, 1 / 3, 2.5]).astype(lead_dtype)
        joined = np.column_stack([lead, m])
        want = _old_csv(joined) if columns is None else _old_csv(joined[:, columns])
        assert _written(tmp_path, m, columns, lead) == want


def _printf_csv(matrix, columns=None, lead=None):
    """Reference text: every cell through printf-style ``%.17g`` / ``%d``."""
    m = np.atleast_2d(np.asarray(matrix))
    if lead is not None:
        m = np.column_stack([lead, m])
    if columns is not None:
        m = m[:, columns]
    code = "%d" if m.dtype.kind in "biu" else "%.17g"
    return "".join(",".join(code % v for v in row) + "\n" for row in m.tolist())


def _ulps(v, count):
    """``v`` and the ``count`` doubles on either side of it."""
    out = [v]
    up = down = v
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        out += [float(up), float(down)]
    return out


def _mantissa(v):
    """The significant digits of ``%.17g`` text, without sign, point or padding zeros."""
    return ("%.17g" % abs(v)).split("e")[0].replace(".", "").strip("0")


def _next_decade_roundups():
    """Doubles just below a power of ten whose 17 digits round up to it."""
    found = []
    for k in range(-280, 17):
        x = float(f"1e{k}")
        for v in (x, float(np.nextafter(x, 0.0))):
            if Fraction(v) < Fraction(10) ** k and _mantissa(v) == "1":
                found.append(v)
    return found


def _near_ties():
    """Doubles whose 17th digit is within 1e-9 of a rounding tie, but not on it.

    With decimal exponent ``16 - p``, x = M 2**e has ``x * 10**p = M 5**p / 2**s``
    (s = -(p + e)); M is solved for a remainder of ``2**(s - 1) + k``, so
    the digits sit ``k / 2**s`` off the tie.
    """
    found = []
    for p in range(300):
        lo = Fraction(10) ** (16 - p)
        e = math.floor(math.log2(lo)) - 52
        while Fraction(2) ** (e + 52) < lo:
            e += 1
        s = -(p + e)
        if not 31 <= s <= 52:
            continue
        inv = pow(5**p, -1, 2**s)
        for k in (1, -1, 2, -2):
            m = (2 ** (s - 1) + k) * inv % 2**s
            m += -(-(2**52 - m) // 2**s) * 2**s  # the least solution >= 2**52
            if m < 2**53 and Fraction(math.ldexp(m, e)) < 10 * lo:
                found.append(math.ldexp(m, e))
    return found


NEXT_DECADE = _next_decade_roundups()
NEAR_TIES = _near_ties()
SPECIAL_FLOATS = sorted(
    {
        *EDGE_FLOATS[5:],
        2.2250738585072014e-308, 1.7976931348623157e308, 1e-280, 1e-281, 1e-300,
        1250000000000000.25, 1250000000000000.75, 123456789012345.125, 9.5, 0.5,
        *_ulps(1e-5, 3), *_ulps(1e-4, 3), *_ulps(1e16, 3), *_ulps(1e17, 3),
        *_ulps(1e-280, 2), *_ulps(1.0, 2), *_ulps(0.1, 2),
        *NEXT_DECADE, *NEAR_TIES,
    }
)
FLOATS = st.one_of(
    st.floats(width=64),
    st.sampled_from(SPECIAL_FLOATS),
    st.sampled_from([-v for v in SPECIAL_FLOATS]),
    st.floats(min_value=1e-7, max_value=1e4),  # the fixed-notation range, densely
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-300, 300)),
)


class TestExactPrintf:
    """Byte equality of the vectorized writer against printf ``%.17g``."""

    def test_near_ties(self, tmp_path):
        # the double-double product alone misrounds some of these
        assert len(NEAR_TIES) >= 40
        for v in NEAR_TIES:
            frac = Fraction(v) * 10 ** (16 - math.floor(math.log10(v))) % 1
            assert 0 < abs(frac - Fraction(1, 2)) < 1e-9
        m = np.array(NEAR_TIES + [-v for v in NEAR_TIES]).reshape(2, -1)
        assert _written(tmp_path, m) == _printf_csv(m)

    def test_next_decade_cases_exist(self):
        # each prints as a power of ten although the double lies below it
        assert len(NEXT_DECADE) >= 5
        assert all(_mantissa(v) == "1" for v in NEXT_DECADE)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=12), elements=FLOATS))
    def test_float64_cells(self, tmp_path_factory, m):
        tmp = tmp_path_factory.mktemp("w")
        assert _written(tmp, m) == _printf_csv(m)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(arrays(np.float32, array_shapes(min_dims=2, max_dims=2, max_side=12), elements=st.floats(width=32)))
    def test_float32_cells(self, tmp_path_factory, m):
        tmp = tmp_path_factory.mktemp("w")
        assert _written(tmp, m) == _printf_csv(m.astype(np.float64))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.data())
    def test_lead_and_columns(self, tmp_path_factory, data):
        rows = data.draw(st.integers(0, 9))
        m = data.draw(arrays(np.float64, (rows, data.draw(st.integers(0, 6))), elements=FLOATS))
        lead = None
        if data.draw(st.booleans()):
            dtype = data.draw(st.sampled_from([np.float64, np.float32, np.int64]))
            elements = st.integers(-(2**40), 2**40) if dtype is np.int64 else st.floats(width=32)
            lead = data.draw(arrays(dtype, rows, elements=elements))
        width = m.shape[1] + (lead is not None)
        columns = None
        if width and data.draw(st.booleans()):
            columns = data.draw(st.lists(st.integers(-width, width - 1), max_size=12))
        tmp = tmp_path_factory.mktemp("w")
        assert _written(tmp, m, columns, lead) == _printf_csv(m, columns, lead)

    @pytest.mark.parametrize(
        "shape",
        [(1, _CHUNK_CELLS + 3), (_CHUNK_CELLS // 41 + 5, 41), (2 * _CHUNK_CELLS + 1, 1), (3, 2 * _CHUNK_CELLS)],
        ids=["wider-than-chunk", "two-chunks", "single-column", "row-per-chunk"],
    )
    def test_shapes_across_chunks(self, tmp_path, shape):
        rng = np.random.default_rng(sum(shape))
        m = rng.choice(SPECIAL_FLOATS, size=shape) * rng.choice([1.0, -1.0], size=shape)
        lead = np.arange(shape[0]) * 1e-3
        columns = [0, *rng.integers(1, shape[1] + 1, size=7).tolist()]
        assert _written(tmp_path, m) == _printf_csv(m)
        assert _written(tmp_path, m, columns, lead) == _printf_csv(m, columns, lead)

    def test_appended_blocks_write_the_same_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        m = rng.choice(SPECIAL_FLOATS, size=(3000, 5)) * rng.choice([1.0, -1.0], size=(3000, 5))
        lead = np.arange(3000) * 1e-3
        cuts = [0, 1, 2, 700, 701, 2999, 3000]
        for columns in (None, [0, 1, 1, 3, 5, 2, 2], [4]):
            path = tmp_path / "blocks.csv"
            with open(path, "wb") as fh:
                for r0, r1 in zip(cuts, cuts[1:]):
                    append_matrix_csv(fh, m[r0:r1], columns=columns, lead=lead[r0:r1])
            assert path.read_text() == _written(tmp_path, m, columns, lead)

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        # simulate's largest output shape; the text is about 53 MB
        m = np.random.default_rng(0).standard_normal((30001, 80)) * np.geomspace(1e-9, 1e3, 80)
        lead = np.arange(30001) * 1e-3
        tracemalloc.start()
        try:
            write_matrix_csv(tmp_path / "m.csv", m, lead=lead)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, peak  # about 1.3 MB: one chunk of records and its temporaries
        with open(tmp_path / "m.csv") as fh:
            assert next(fh) == _printf_csv(m[:1], lead=lead[:1])


class TestStagedFiles:
    def test_renamed_when_the_block_succeeds(self, tmp_path):
        paths = tmp_path / "a.csv", tmp_path / "b.csv"
        with staged_files(*paths) as (a, b):
            a.write(b"1\n")
            b.write(b"2\n")
            assert sorted(os.listdir(tmp_path)) == ["a.csv.part", "b.csv.part"]
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv"]
        assert [p.read_bytes() for p in paths] == [b"1\n", b"2\n"]

    def test_nothing_left_when_the_block_raises(self, tmp_path):
        (tmp_path / "a.csv").write_bytes(b"old\n")
        with pytest.raises(KeyError):
            with staged_files(tmp_path / "a.csv", tmp_path / "b.csv") as (a, _):
                a.write(b"new\n")
                raise KeyError("failed")
        assert os.listdir(tmp_path) == ["a.csv"]
        assert (tmp_path / "a.csv").read_bytes() == b"old\n"


def test_import_builds_no_table():
    # the formatter's tables are built by the first float write, not at import
    code = (
        "import json, sys, netreduce.cli\n"
        "from netreduce.io import _tables\n"
        "print(json.dumps([_tables.cache_info().currsize, 'fractions' in sys.modules, 'decimal' in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(netreduce.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [0, False, False]
