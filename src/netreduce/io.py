"""Deterministic CSV and JSON writers for run outputs.

Numeric CSV values print as printf ``%.17g`` (integers as ``%d``). The
float cells of a matrix are formatted by a numpy kernel, a chunk of cells
at a time, that produces exactly the bytes of ``%.17g`` and hands the rare
cells it cannot settle to :func:`fmt` (:func:`write_matrix_csv`); its
tables are built on the first float write, not at import. A matrix that
arrives a block of rows at a time is written one block per call
(:func:`append_matrix_csv`), and :func:`staged_files` gives such files
their names only once all of them are complete. JSON documents are dumped
with sorted keys and no incidental state (no timestamps), so re-running a
command with the same config and seed reproduces every output byte.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import operator
import os
from typing import NamedTuple

import numpy as np


def fmt(x):
    """Format one number at 17 significant digits."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


_CHUNK_CELLS = 4096  # cells formatted per fh.write: about 200 KB of records
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for doubles
_MAX_POW = 300  # 10**p for p < 300, enough for |x| >= 1e-280

# A cell's record holds every byte that a %.17g text can need, NUL where
# unused, and is written with its NUL bytes dropped:
#   0       sign
#   1-5     "0." and up to three zeros (fixed form, -4 <= dec < 0)
#   6-39    the 17 digits at even offsets, each followed by a slot for the
#           decimal point; the 17th digit's slot holds the "e" of the
#           exponent form
#   40-43   "-" and three exponent digits
#   47      the separator
# A cell's own bytes come as six uint64 words ANDed into the template of its
# layout: word 0 holds the first digit, words 1-4 four digits each, word 5
# the exponent.
_REC = 48
_SEP = 47
# layout classes: 0 exponent form, dec + 5 fixed form (-4 <= dec <= 16), _ZERO for +-0
_ZERO = 22


def _layout(cls, nz):
    """Record template of layout class ``cls`` with ``nz`` significant digits.

    A digit or exponent byte holds 0xFF where it is printed, since the
    cell's own bytes are ANDed in; every other byte holds what the notation
    prints there, or NUL. The sign is set per cell.
    """
    rec = bytearray(_REC)
    if cls == _ZERO:
        rec[1] = ord("0")
        return bytes(rec)
    dec = cls - 5
    if cls == 0:  # d.ddde-XX
        shown, point = nz, 0
        rec[39:44] = b"e\xff\xff\xff\xff"
    elif dec < 0:  # 0.000ddd
        shown, point = nz, None
        rec[1 : 2 - dec] = b"0." + b"0" * (-1 - dec)
    else:  # ddd.ddd, keeping the integer part's trailing zeros
        shown, point = max(nz, dec + 1), dec
    rec[6 : 6 + 2 * shown : 2] = b"\xff" * shown
    if point is not None and nz > point + 1:
        rec[7 + 2 * point] = ord(".")
    return bytes(rec)


class _Tables(NamedTuple):
    hi: np.ndarray  # 10**p rounded to float64, p = 0.._MAX_POW - 1
    hh: np.ndarray  # Dekker halves of hi, hh + hl == hi: a product of halves is exact
    hl: np.ndarray
    lo: np.ndarray  # 10**p - hi, rounded
    # record words, one uint64 per entry, to AND into a template; 0xFF in
    # the bytes the template decides
    lead8: np.ndarray  # bytes 0-7 for a first digit of 0..9
    text8: np.ndarray  # the four digits of 0..9999, each followed by 0xFF
    exp8: np.ndarray  # bytes 40-47 for the exponent 0..299: "-" and 3 digits, NUL for a leading 0
    zeros4: np.ndarray  # trailing zeros among the four digits of 0..9999
    layouts: np.ndarray  # record templates, row 17 * class + nz - 1


@functools.cache
def _tables():
    """The float formatter's tables, built on first use (about a millisecond).

    The digit tables are filled by broadcasting the ten ASCII digits, so
    that building them makes no temporary array: temporaries freed below a
    table that outlives them would stay in the heap for the rest of the run.
    """
    powers = [10**p for p in range(_MAX_POW)]
    hi = np.array([float(v) for v in powers])
    c = hi * _SPLIT
    hh = c - (c - hi)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    lead8 = np.full((10, 8), 0xFF, np.uint8)
    lead8[:, 6] = digit
    text8 = np.full((10, 10, 10, 10, 8), 0xFF, np.uint8)
    text8[..., 0] = digit[:, None, None, None]
    text8[..., 2] = digit[:, None, None]
    text8[..., 4] = digit[:, None]
    text8[..., 6] = digit
    exp8 = np.zeros((3, 10, 10, 8), np.uint8)
    exp8[..., 0] = ord("-")
    exp8[1:, ..., 1] = digit[1:3, None, None]  # no hundreds digit below 100
    exp8[..., 2] = digit[:, None]
    exp8[..., 3] = digit
    zero = np.arange(10) == 0
    zeros4 = zero * (1 + zero[:, None] * (1 + zero[:, None, None] * (1 + zero[:, None, None, None])))
    layouts = b"".join(_layout(cls, nz) for cls in range(_ZERO + 1) for nz in range(1, 18))
    return _Tables(
        hi=hi,
        hh=hh,
        hl=hi - hh,
        lo=np.array([float(v - int(h)) for v, h in zip(powers, hi.tolist())]),
        lead8=lead8.view(np.uint64).ravel(),
        text8=text8.view(np.uint64).ravel(),
        exp8=exp8.view(np.uint64).ravel(),
        zeros4=zeros4.ravel(),
        layouts=np.frombuffer(layouts, np.uint8).reshape(-1, _REC),
    )


def _scaled(a, p):
    """``a * 10**p`` as ``ph + t``, with ``ph = fl(a * hi)`` and ``t`` the rest to about 1e-14.

    Dekker's two-product gives the rounding error of ``a * hi`` exactly;
    ``a * lo`` adds the part of ``10**p`` that ``hi`` misses.
    """
    tab = _tables()
    hi, hh, hl = tab.hi[p], tab.hh[p], tab.hl[p]
    ph = a * hi
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    t = ((ah * hh - ph) + ah * hl + al * hh) + al * hl
    t += a * tab.lo[p]
    return ph, t


def _format_floats(x):
    """printf ``%.17g`` records of the float64 cells ``x``: an (N, _REC) uint8 array.

    A cell's 17 digits are ``D = round_half_even(|x| * 10**(16 - dec))``,
    with ``dec`` its decimal exponent, and come out exact except within
    1e-9 of a tie. Zero is laid out directly; near-ties, non-finite values,
    ``|x| >= 1e17`` and ``|x| < 1e-280`` are formatted by :func:`fmt`.
    """
    tab = _tables()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a < 1e17)
    a[~fast] = 1.0
    p = np.maximum(16 - np.floor(np.log10(a)).astype(np.intp), 0)
    ph, t = _scaled(a, p)
    # log10 can be a decade off next to a power of ten: redo those cells
    low = (ph - 1e16) + t < 0
    fix = np.flatnonzero(low | ((ph - 1e17) + t >= 0))
    if fix.size:
        p[fix] += np.where(low[fix], 1, -1)
        ph[fix], t[fix] = _scaled(a[fix], p[fix])
    r = np.rint(t)  # ph is an even integer, so this rounds ph + t half to even
    fast &= np.abs(t - r) < 0.5 - 1e-9
    d = ph.astype(np.int64) + r.astype(np.int64)
    up = d == 10**17  # rounded into the next decade
    d[up] = 10**16
    dec = 16 - p + up

    high, low8 = np.divmod(d, 10**8)
    (d1, g2), (g3, g4) = np.divmod(high, 10**4), np.divmod(low8, 10**4)
    d0, g1 = np.divmod(d1, 10**4)
    groups = (g1, g2, g3, g4)  # digits 2-17, four at a time
    z1, z2, z3, z4 = (tab.zeros4.take(g) for g in groups)
    nz = 17 - (z4 + (z4 == 4) * (z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)))

    cls = np.where(x == 0, _ZERO, np.clip(dec + 5, 0, 21))
    rec = tab.layouts.take(17 * cls + nz - 1, axis=0)
    # column by column: numpy is slow on (N, 6) operands
    words = rec.view(np.uint64)
    words[:, 0] &= tab.lead8.take(d0)
    for k, g in enumerate(groups):
        words[:, 1 + k] &= tab.text8.take(g)
    words[:, 5] &= tab.exp8.take(np.maximum(-dec, 0))
    rec[:, 0] = np.signbit(x) * ord("-")
    for i in np.flatnonzero(~fast & (x != 0)):
        text = fmt(x[i]).encode()
        rec[i] = 0
        rec[i, : len(text)] = np.frombuffer(text, np.uint8)
    return rec


def write_matrix_csv(path, matrix, columns=None, lead=None):
    """Dense matrix as CSV: one row per line, comma-separated.

    Cells print as printf ``%.17g``, or ``%d`` for integer and bool dtypes:
    the same text :func:`fmt` gives. A 1-D ``matrix`` is one row. With
    ``lead``, a 1-D array of one value per row, line i starts with
    ``lead[i]``: the text of ``np.column_stack([lead, matrix])``, written
    without forming that array. With ``columns``, a sequence of column
    indices into the (lead-extended) rows that may repeat and come in any
    order, line i holds ``matrix[i, columns]``.

    The rows go through :func:`append_matrix_csv`, so memory does not grow
    with the row count.
    """
    with open(path, "wb") as fh:
        append_matrix_csv(fh, matrix, columns=columns, lead=lead)


def append_matrix_csv(fh, matrix, columns=None, lead=None):
    """Append the lines of :func:`write_matrix_csv` to the binary file ``fh``.

    Rows are written in chunks of a few thousand cells, one ``write`` each,
    so a matrix that arrives a block of rows at a time, one call per block,
    is written with the same bytes as in one call. The float cells of a
    chunk are formatted once each, all together, into fixed-width records
    (:func:`_format_floats`) whose unused NUL bytes are dropped. With
    ``columns``, each line is then assembled from its row's formatted
    cells, so a column that repeats is formatted once.
    """
    m = np.atleast_2d(np.asarray(matrix))
    blocks = [m] if lead is None else [np.asarray(lead)[:, None], m]
    width = sum(b.shape[1] for b in blocks)
    picked = np.arange(width)
    if columns is not None:
        picked = picked[np.asarray(columns, dtype=int)]
    integer = np.result_type(*blocks).kind in "biu"
    step = max(1, _CHUNK_CELLS // max(width, 1))  # rows formatted at a time
    out_step = max(1, _CHUNK_CELLS // max(picked.size, 1))  # rows written at a time
    pick = operator.itemgetter(*picked.tolist()) if picked.size > 1 else None
    for start in range(0, len(m), step):
        cells = np.concatenate([b[start : start + step] for b in blocks], axis=1)
        if integer:
            row = ",".join(["%d"] * picked.size) + "\n"
            fh.write("".join(row % tuple(r) for r in cells[:, picked].tolist()).encode())
        elif not picked.size:
            fh.write(b"\n" * len(cells))
        else:
            rec = _format_floats(cells.astype(np.float64, copy=False).ravel())
            rec = rec.reshape(len(cells), width, _REC)
            rec[:, :, _SEP] = ord(",")
            rec[:, -1, _SEP] = ord("\n")
            text = rec.tobytes().translate(None, b"\0")
            if columns is None:
                fh.write(text)
                continue
            lines = text.split(b"\n")
            lines.pop()  # the empty text after the last newline
            for sub in range(0, len(cells), out_step):
                chunk = lines[sub : sub + out_step]
                if pick is None:
                    out = [line.split(b",")[picked[0]] for line in chunk]
                else:
                    out = [b",".join(pick(line.split(b","))) for line in chunk]
                out.append(b"")
                fh.write(b"\n".join(out))


@contextlib.contextmanager
def staged_files(*paths):
    """Binary handles, one per path, that become the files ``paths`` only on success.

    Each file is written as ``path + ".part"``. When the block ends without
    an exception, the handles are closed and renamed to ``paths`` in order;
    when it raises, the partial files are deleted, so a failed command
    leaves neither a truncated output nor a temporary file.
    """
    parts = [f"{path}.part" for path in paths]
    handles = []
    try:
        for part in parts:
            handles.append(open(part, "wb"))
        yield handles
    except BaseException:
        for fh, part in zip(handles, parts):
            fh.close()
            os.remove(part)
        raise
    for fh, part, path in zip(handles, parts, paths):
        fh.close()
        os.replace(part, path)


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


def config_hash(config_dict):
    """Stable hash of a canonicalized config document."""
    blob = json.dumps(config_dict, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
