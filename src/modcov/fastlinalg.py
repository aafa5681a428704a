"""numpy-backed exact linear algebra mod p for large graded pieces.

All arithmetic is exact: products are taken in float64 and reduced mod p
afterwards.  Entries are < p, so a dot product over k terms is bounded by
k*(p-1)^2, which ``matmul_mod`` checks against 2^53.  Heavy work is
routed through BLAS matmuls; the per-row fallback only ever touches small
blocks.  ``solve_mod`` answers x @ a = b with one ``rref_mod`` of the
transposed augmented matrix, free coordinates set to 0.

Cross-checked against the pure-Python ``field`` module in the test suite.
"""

from __future__ import annotations

import numpy as np

_BASE_ROWS = 64  # naive elimination below this many rows


def _dtype(p: int):
    return np.int8 if p < 128 else np.int32


def asmod(a, p: int):
    a = np.asarray(a)
    return np.mod(a, p).astype(_dtype(p), copy=False)


def matmul_mod(a, b, p: int):
    """(a @ b) mod p, exact, chunked over rows of a to bound temp memory."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    if k * (p - 1) ** 2 >= 2**53:
        raise OverflowError(f"k*(p-1)^2 >= 2^53 for k = {k}, p = {p}: float64 is inexact")
    if k == 0 or m == 0:
        return np.zeros((m, n), dtype=_dtype(p))
    bf = b.astype(np.float64)
    out = np.empty((m, n), dtype=_dtype(p))
    step = max(1, int(2e7) // max(1, n))
    for r0 in range(0, m, step):
        chunk = a[r0 : r0 + step].astype(np.float64)
        out[r0 : r0 + step] = np.mod(chunk @ bf, p)
    return out


def _reduce_against(m, rows, pivcols, p):
    """Clear the pivot columns of ``m`` using the rref ``rows``."""
    if len(pivcols) == 0 or m.shape[0] == 0:
        return m
    coef = m[:, pivcols]
    if not coef.any():
        return m
    return asmod(m.astype(np.int64) - matmul_mod(coef, rows, p).astype(np.int64), p)


def _rref_base(m, p):
    """Incremental rref of a small block; rows earlier in order win pivots."""
    m = m.astype(np.int64)
    rows = []  # list of 1-d arrays, unit pivot, mutually reduced
    pivs = []
    keep_orig = []
    for i in range(m.shape[0]):
        v = m[i] % p
        for r, c in zip(rows, pivs):
            f = v[c]
            if f:
                v = (v - f * r) % p
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            continue
        c = nz[0]
        v = (v * pow(int(v[c]), p - 2, p)) % p
        for idx in range(len(rows)):
            f = rows[idx][c]
            if f:
                rows[idx] = (rows[idx] - f * v) % p
        rows.append(v)
        pivs.append(int(c))
        keep_orig.append(i)
    if rows:
        order = np.argsort(pivs)
        rr = np.array([rows[i] for i in order], dtype=np.int64)
        pv = np.array([pivs[i] for i in order], dtype=np.intp)
        og = [keep_orig[i] for i in order]
    else:
        rr = np.zeros((0, m.shape[1]), dtype=np.int64)
        pv = np.array([], dtype=np.intp)
        og = []
    return asmod(rr, p), pv, og


def rref_mod(m, p: int):
    """Reduced row echelon form of an integer matrix mod p.

    Returns (rows, pivcols, pivot_origins): ``rows`` is the rref with unit
    pivots sorted by pivot column, and ``pivot_origins`` identifies, per
    echelon row, which input row first contributed that pivot (a row is
    selected iff it is independent of all earlier input rows).
    """
    m = asmod(m, p)
    if m.shape[0] <= _BASE_ROWS:
        return _rref_base(m, p)
    half = m.shape[0] // 2
    r1, p1, o1 = rref_mod(m[:half], p)
    bottom = _reduce_against(m[half:], r1, p1, p)
    r2, p2, o2 = rref_mod(bottom, p)
    r1 = _reduce_against(r1, r2, p2, p)
    rows = np.concatenate([r1, r2], axis=0)
    pivs = np.concatenate([p1, p2])
    origs = o1 + [half + i for i in o2]
    order = np.argsort(pivs)
    return rows[order], pivs[order], [origs[i] for i in order]


def solve_mod(a, b, p: int):
    """Some x with x @ a = b mod p, or None if there is none.

    One rref of [a^T | b]; its free coordinates are set to 0, as
    ``field.solve`` on a^T does."""
    a = asmod(a, p)
    aug = np.concatenate([a.T, asmod(b, p).reshape(-1, 1)], axis=1)
    rows, pivs, _ = rref_mod(aug, p)
    if pivs.size and pivs[-1] == a.shape[0]:
        return None  # a pivot in the b column: inconsistent
    x = np.zeros(a.shape[0], dtype=_dtype(p))
    x[pivs] = rows[:, -1]
    return x


class Echelon:
    """A growing rref basis mod p supporting batched row insertion."""

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.ncols = ncols
        self.rows = np.zeros((0, ncols), dtype=_dtype(p))
        self.pivcols = np.array([], dtype=np.intp)

    @property
    def rank(self) -> int:
        return self.rows.shape[0]

    def reduce(self, m):
        """Reduce rows of m modulo the current span (full reduction)."""
        m = asmod(m, self.p)
        return _reduce_against(m, self.rows, self.pivcols, self.p)

    def add_rows(self, m):
        """Insert rows; returns the indices of the rows of m that increased
        the rank (each independent of the span and of the earlier rows of
        m), ordered by the pivot column each contributed, not by index."""
        m = asmod(np.atleast_2d(m), self.p)
        if m.shape[0] == 0:
            return []
        red = self.reduce(m)
        new_rows, new_pivs, new_origs = rref_mod(red, self.p)
        if new_rows.shape[0] == 0:
            return []
        self.rows = _reduce_against(self.rows, new_rows, new_pivs, self.p)
        self.rows = np.concatenate([self.rows, new_rows], axis=0)
        self.pivcols = np.concatenate([self.pivcols, new_pivs])
        order = np.argsort(self.pivcols)
        self.rows = self.rows[order]
        self.pivcols = self.pivcols[order]
        return new_origs
