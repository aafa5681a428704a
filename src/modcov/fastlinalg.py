"""numpy-backed exact linear algebra mod p for large graded pieces.

Matrices are stored in ``_dtype(p)`` with entries in [0, p).  Products are
taken in float64, where they are exact while every value stays below 2^53:
a dot product over k terms is bounded by k*(p-1)^2, and ``_check_exact``
refuses a product whose bound k*(p-1)^2 + p reaches 2^53 (the + p leaves
room for the reduction).  Each product is reduced once, in place, by the
floor trick x - floor(x/p)*p (FFLAS-FFPACK: Dumas, Giorgi & Pernet, ACM
TOMS 35, 2008) and written back to ``_dtype(p)``, in row chunks of at most
``_CHUNK`` float64 elements, so the float temporaries stay bounded.

Rows are inserted by one step, ``_merge``: reduce them against an rref
(one gemm and one reduction), eliminate what is left, back-reduce the old
rows, sort by pivot column.  ``rref_mod`` drops the zero rows of a matrix
and merges the bottom half into the rref of its top half,
``Echelon.add_rows`` a batch into a growing basis.  At most ``_BASE_ROWS``
rows go to ``_rref_base``, which delays its reductions the same way: one
unreduced whole-block step per pivot, a row taken mod p only when it is
read, and a dtype and a reduction period chosen from the growth bound.
A row gets a pivot iff it is independent of the rows before it (the row
rank profile).  ``solve_mod`` (x @ a = b, free coordinates 0) and
``kernel_mod`` (right null space) are one ``rref_mod`` each.

Cross-checked against the pure-Python ``field`` module in the test suite.
"""

from __future__ import annotations

import numpy as np

_BASE_ROWS = 64  # naive elimination below this many rows
_BLOCK = 1 << 15  # elements reduced at a time, so the temporaries stay in cache
_CHUNK = 1 << 21  # float64 elements of a product taken at a time (16 MB)


def _dtype(p: int):
    return np.int8 if p < 128 else np.int32


def asmod(a, p: int):
    a = np.asarray(a)
    return np.mod(a, p).astype(_dtype(p), copy=False)


def _check_exact(k: int, p: int):
    """Refuse a product over k terms that float64 cannot hold exactly."""
    if k * (p - 1) ** 2 + p >= 2**53:
        raise OverflowError(f"k*(p-1)^2 + p >= 2^53 for k = {k}, p = {p}: float64 is inexact")


def _reduce_into(x, p: int, out):
    """out = x mod p for a C-contiguous float64 array x of integers with
    |x| + p < 2^53; x is overwritten."""
    x, flat = x.reshape(-1), out.reshape(-1)
    q = np.empty(min(_BLOCK, x.size))
    for s in range(0, x.size, _BLOCK):
        v = x[s : s + _BLOCK]
        w = q[: v.size]
        np.multiply(v, 1.0 / p, out=w)
        np.floor(w, out=w)
        w *= p
        v -= w
        # x*(1/p) can round across an integer: one step back either way
        if v.min() < 0 or v.max() >= p:
            v[v < 0] += p
            v[v >= p] -= p
        flat[s : s + _BLOCK] = v
    return out


def matmul_mod(a, b, p: int):
    """(a @ b) mod p, exact, chunked over rows of a to bound temp memory."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    _check_exact(k, p)
    if k == 0:
        return np.zeros((m, n), dtype=_dtype(p))
    bf = b.astype(np.float64)
    out = np.empty((m, n), dtype=_dtype(p))
    step = max(1, _CHUNK // max(1, n))
    for r0 in range(0, m, step):
        _reduce_into(a[r0 : r0 + step].astype(np.float64) @ bf, p, out[r0 : r0 + step])
    return out


def _reduce_against(m, rows, pivcols, p):
    """Clear the pivot columns of ``m`` using the rref ``rows``:
    m - m[:, pivcols] @ rows, one gemm and one reduction per row chunk."""
    coef = m[:, pivcols]
    if not coef.any():
        return m
    _check_exact(len(pivcols), p)
    rf = rows.astype(np.float64)
    out = np.empty(m.shape, dtype=_dtype(p))
    step = max(1, _CHUNK // max(1, m.shape[1]))
    for r0 in range(0, m.shape[0], step):
        x = coef[r0 : r0 + step].astype(np.float64) @ rf
        _reduce_into(np.subtract(m[r0 : r0 + step], x, out=x), p, out[r0 : r0 + step])
    return out


def _rref_base(m, p):
    """rref of a block without zero rows, reduced lazily: row i is taken mod
    p only when it is read, by then against every pivot found before it, so
    it gets a pivot iff it is independent of the rows before it.  A pivot at
    column c subtracts (a[:, c] mod p) * row from the whole block unreduced,
    moving an entry by at most (p-1)^2, so k steps keep it within
    k*(p-1)^2 + p: int16 when that is below 2^15 for k = the block's rows,
    else int64, reduced every ``steps`` pivots, the largest k it holds."""
    steps = (2**63 - p) // (p - 1) ** 2
    a = m.astype(np.int16 if len(m) * (p - 1) ** 2 + p < 2**15 else np.int64)
    pivs, origs = [], []
    for i in range(len(a)):
        v = a[i] % p
        nz = np.flatnonzero(v)
        if not nz.size:
            continue
        c = int(nz[0])
        row = v * pow(int(v[c]), p - 2, p) % p
        a -= (a[:, c] % p)[:, None] * row
        a[i] = row
        pivs.append(c)
        origs.append(i)
        if len(pivs) % steps == 0:
            a %= p
    order = np.argsort(pivs)
    origs = np.array(origs, dtype=np.intp)[order]
    return (a[origs] % p).astype(_dtype(p)), np.array(pivs, dtype=np.intp)[order], origs


def _merge(rows, pivs, m, p):
    """Insert the rows of m into the rref (rows, pivs): reduce m against it,
    eliminate the rest, back-reduce the old rows and sort by pivot column.

    Returns the merged rows and pivots, the origins in m of the new rows in
    pivot order, and the permutation that sorted [old rows; new rows]."""
    new, new_pivs, origs = _rref(_reduce_against(m, rows, pivs, p), p)
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
    return _rref(asmod(m, p), p)


def _rref(m, p):
    """``rref_mod`` of a matrix already reduced into ``_dtype(p)``.  Zero
    rows are dropped first; ``keep`` maps the origins back."""
    keep = np.flatnonzero(m.any(axis=1))
    m = m[keep] if keep.size < len(m) else m
    if len(m) <= _BASE_ROWS:
        rows, pivs, origs = _rref_base(m, p)
        return rows, pivs, keep[origs].tolist()
    half = len(m) // 2
    top, top_pivs, top_origs = _rref(m[:half], p)
    rows, pivs, new, order = _merge(top, top_pivs, m[half:], p)
    origs = keep[top_origs + [half + i for i in new]]
    return rows, pivs, origs[order].tolist()


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
        m), ordered by the pivot column each contributed, not by index.
        Rows of ``_dtype(p)`` must lie in [0, p): checked, not reduced."""
        m = np.atleast_2d(m)
        if m.dtype != _dtype(self.p):
            m = asmod(m, self.p)
        elif m.size and (m.min() < 0 or m.max() >= self.p):
            raise ValueError("rows of the residue dtype must lie in [0, p)")
        self.rows, self.pivcols, new, _ = _merge(self.rows, self.pivcols, m, self.p)
        return new
