import numpy as np
import pytest

from netreduce.io import read_matrix_csv, write_matrix_csv


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
