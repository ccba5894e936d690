"""Deterministic CSV and JSON writers for run outputs.

All numeric CSV values use 17 significant digits; JSON documents are dumped
with sorted keys and no incidental state (no timestamps), so re-running a
command with the same config and seed reproduces every output byte.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def fmt(x):
    """Format one number at 17 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_matrix_csv(path, matrix, columns=None):
    """Dense matrix as CSV: one row per line, comma-separated.

    Cells print as printf ``%.17g``, or ``%d`` for integer and bool dtypes:
    the same text :func:`fmt` gives. A 1-D ``matrix`` is one row. With
    ``columns``, a sequence of column indices that may repeat and come in
    any order, line i holds ``matrix[i, columns]``; each cell of
    ``matrix`` is still formatted once. Rows are formatted and written one
    at a time, so no string holds the whole file.
    """
    m = np.atleast_2d(np.asarray(matrix))
    code = "%d" if m.dtype.kind in "biu" else "%.17g"
    row = ",".join([code] * m.shape[1])
    if columns is None:
        row += "\n"
        lines = (row % tuple(r.tolist()) for r in m)
    else:
        picked = np.arange(m.shape[1])[np.asarray(columns, dtype=int)].tolist()
        cells = ((row % tuple(r.tolist())).split(",") for r in m)
        lines = (",".join([c[i] for i in picked]) + "\n" for c in cells)
    with open(path, "w") as fh:
        fh.writelines(lines)


def read_matrix_csv(path):
    with open(path) as fh:
        rows = [[float(v) for v in line.strip().split(",")] for line in fh if line.strip()]
    return np.asarray(rows)


def write_table_csv(path, header, rows):
    """CSV with a header row; cells may be str or numeric."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else fmt(v) for v in row) + "\n")


def dump_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def config_hash(config_dict):
    """Stable hash of a canonicalized config document."""
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
