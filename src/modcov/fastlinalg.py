"""numpy-backed exact linear algebra mod p for large graded pieces.

All arithmetic is exact: products are taken in float64 and reduced mod p
afterwards.  Entries are < p, so a dot product over k terms is bounded by
k*(p-1)^2, which ``matmul_mod`` checks against 2^53.

Rows are inserted by one step, ``_merge``: reduce them against an rref,
eliminate what is left, back-reduce the old rows, sort by pivot column.
``rref_mod`` merges the bottom half of a matrix into the rref of its top
half, ``Echelon.add_rows`` a batch into a growing basis.  At most
``_BASE_ROWS`` rows go to ``_rref_base``: whole-row int64 steps, products
below _BASE_ROWS*(p-1)^2.  A row gets a pivot iff it is independent of the
rows before it (the row rank profile).  ``solve_mod`` (x @ a = b, free
coordinates 0) and ``kernel_mod`` (right null space) are one ``rref_mod``
each; other modules call these, never ``rref_mod``.

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
    coef = m[:, pivcols]
    if not coef.any():
        return m
    return asmod(m.astype(np.int64) - matmul_mod(coef, rows, p).astype(np.int64), p)


def _rref_base(m, p):
    """Incremental rref of a small block; rows earlier in order win pivots.
    The basis rows are mutually reduced, so one product v[pivs] @ basis
    reduces a row, and its pivot column is cleared where the basis has it."""
    basis = np.zeros((min(m.shape), m.shape[1]), dtype=np.int64)
    pivs = np.zeros(basis.shape[0], dtype=np.intp)
    origs = np.zeros(basis.shape[0], dtype=np.intp)
    rank = 0
    for i, v in enumerate(m.astype(np.int64)):
        v = (v - v[pivs[:rank]] @ basis[:rank]) % p
        nz = np.flatnonzero(v)
        if nz.size:
            c = nz[0]
            v = v * pow(int(v[c]), p - 2, p) % p
            hit = np.flatnonzero(basis[:rank, c])
            basis[hit] = (basis[hit] - np.outer(basis[hit, c], v)) % p
            basis[rank], pivs[rank], origs[rank] = v, c, i
            rank += 1
    order = np.argsort(pivs[:rank])
    return asmod(basis[order], p), pivs[order], origs[order].tolist()


def _merge(rows, pivs, m, p):
    """Insert the rows of m into the rref (rows, pivs): reduce m against it,
    eliminate the rest, back-reduce the old rows and sort by pivot column.

    Returns the merged rows and pivots, the origins in m of the new rows in
    pivot order, and the permutation that sorted [old rows; new rows]."""
    new, new_pivs, origs = rref_mod(_reduce_against(m, rows, pivs, p), p)
    if not origs:
        return rows, pivs, origs, np.arange(len(pivs))
    rows = np.concatenate([_reduce_against(rows, new, new_pivs, p), new])
    pivs = np.concatenate([pivs, new_pivs])
    order = np.argsort(pivs)
    return rows[order], pivs[order], origs, order


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
    top, top_pivs, top_origs = rref_mod(m[:half], p)
    rows, pivs, new, order = _merge(top, top_pivs, m[half:], p)
    origs = top_origs + [half + i for i in new]
    return rows, pivs, [origs[i] for i in order]


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


def kernel_mod(m, p: int):
    """Basis (rows) of the right null space of m over F_p."""
    rows, pivs, _ = rref_mod(m, p)
    free = np.ones(m.shape[1], dtype=bool)
    free[pivs] = False
    out = np.zeros((int(free.sum()), m.shape[1]), dtype=np.int64)
    out[:, free] = np.eye(out.shape[0], dtype=np.int64)
    out[:, pivs] = -rows[:, free].T.astype(np.int64)
    return asmod(out, p)


class Echelon:
    """A growing rref basis mod p supporting batched row insertion."""

    def __init__(self, p: int, ncols: int):
        self.p = p
        self.rows = np.zeros((0, ncols), dtype=_dtype(p))
        self.pivcols = np.array([], dtype=np.intp)

    @property
    def rank(self) -> int:
        return self.rows.shape[0]

    def add_rows(self, m):
        """Insert rows; returns the indices of the rows of m that increased
        the rank (each independent of the span and of the earlier rows of
        m), ordered by the pivot column each contributed, not by index."""
        m = asmod(np.atleast_2d(m), self.p)
        self.rows, self.pivcols, new, _ = _merge(self.rows, self.pivcols, m, self.p)
        return new
