"""The numpy-backed linear algebra, cross-checked against the pure-Python
oracle in ``field``."""

import random

import numpy as np
import pytest

from modcov import field
from modcov.fastlinalg import Echelon, _reduce_against, asmod, matmul_mod, rref_mod, solve_mod


def _rand(rng, rows, cols, p):
    return np.array(
        [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )


def _to_fp(m, p):
    F = field.PrimeField(p)
    return field.FpMatrix.from_rows(F, [[int(x) for x in row] for row in m])


def test_matmul_mod_matches_oracle():
    rng = random.Random(10)
    for p in (2, 3, 5, 7):
        for _ in range(10):
            a = _rand(rng, rng.randrange(1, 8), rng.randrange(1, 8), p)
            b = _rand(rng, a.shape[1], rng.randrange(1, 8), p)
            fast = matmul_mod(a, b, p)
            slow = _to_fp(a, p).matmul(_to_fp(b, p))
            assert [[int(x) for x in row] for row in fast] == [
                slow.row(r) for r in range(slow.rows)
            ]


def test_matmul_mod_refuses_inexact_products():
    p = 2**26 + 1  # a dot product of k = 2 terms reaches 2 * (p-1)^2 = 2^53
    a = np.ones((1, 2), dtype=np.int64)
    with pytest.raises(OverflowError):
        matmul_mod(a, a.T, p)


def test_rref_mod_matches_oracle():
    rng = random.Random(11)
    for p in (2, 3, 5, 7, 32749):
        for _ in range(20):
            m = _rand(rng, rng.randrange(1, 10), rng.randrange(1, 10), p)
            rows, pivs, origins = rref_mod(m, p)
            R, opivs, rank = field.rref(_to_fp(m, p))
            assert list(pivs) == opivs
            assert rows.shape[0] == rank
            got = [[int(x) for x in row] for row in rows]
            want = [R.row(r) for r in range(rank)]
            assert got == want


def test_rref_mod_large_hits_recursion():
    # more rows than the base-case threshold, so the divide-and-conquer
    # path runs; rank and rref must still agree with the oracle.  A low-rank
    # product (rank < 12) leaves non-pivot columns in the rref, so wrong
    # intermediate arithmetic shows in its entries
    rng = random.Random(12)
    for p in (2, 3, 5, 7, 32749):
        r = rng.randrange(6, 12)
        m = _rand(rng, 150, r, p) @ _rand(rng, r, 12, p) % p
        rows, pivs, origins = rref_mod(m, p)
        R, opivs, rank = field.rref(_to_fp(m, p))
        assert list(pivs) == opivs
        assert [[int(x) for x in row] for row in rows] == [R.row(r) for r in range(rank)]


def test_rref_origins_are_greedy():
    """Row i is a pivot origin exactly when it is independent of rows < i."""
    rng = random.Random(13)
    for p in (2, 5, 7, 32749):
        for _ in range(10):
            m = _rand(rng, rng.randrange(2, 90), rng.randrange(1, 7), p)
            _, _, origins = rref_mod(m, p)
            expect = []
            ech = Echelon(p, m.shape[1])
            for i in range(m.shape[0]):
                if ech.add_rows(m[i : i + 1]):
                    expect.append(i)
            assert sorted(origins) == expect


def _contains(ech, v):
    v = asmod(np.atleast_2d(v), ech.p)
    return not _reduce_against(v, ech.rows, ech.pivcols, ech.p).any()


def test_echelon_membership():
    rng = random.Random(14)
    p = 5
    span_rows = _rand(rng, 4, 6, p)
    ech = Echelon(p, 6)
    ech.add_rows(span_rows)
    # arbitrary combinations are inside
    for _ in range(20):
        coef = _rand(rng, 1, 4, p)
        v = matmul_mod(coef, span_rows, p)[0]
        assert _contains(ech, v)
    # vectors outside (if the span is proper) are detected
    if ech.rank < 6:
        found_outside = False
        for _ in range(50):
            v = _rand(rng, 1, 6, p)[0]
            if not _contains(ech, v):
                found_outside = True
        assert found_outside


def test_echelon_incremental_rank():
    rng = random.Random(15)
    p = 3
    for _ in range(10):
        m = _rand(rng, 30, 8, p)
        ech = Echelon(p, 8)
        ech.add_rows(m[:15])
        ech.add_rows(m[15:])
        _, _, rank = field.rref(_to_fp(m, p))
        assert ech.rank == rank


def test_asmod_dtype():
    assert asmod(np.array([[7, -1]]), 5).tolist() == [[2, 4]]


def test_add_rows_returns_new_rows_by_pivot_column():
    ech = Echelon(5, 4)
    assert ech.add_rows(np.array([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])) == [2, 1, 0]
    # reduced against the span first: row 0 becomes e_3, row 2 e_1, and
    # row 1 depends on row 0 and the span
    ech = Echelon(5, 4)
    ech.add_rows(np.array([[1, 0, 0, 0], [0, 0, 1, 0]]))
    assert ech.add_rows(np.array([[1, 0, 0, 1], [2, 0, 3, 2], [4, 1, 0, 0]])) == [2, 0]
    # past the base-case size the recursion keeps the same order
    n = 80
    ech = Echelon(3, n)
    assert ech.add_rows(np.eye(n, dtype=np.int64)[::-1]) == list(range(n - 1, -1, -1))


def test_solve_mod_matches_oracle():
    """x @ a = b is the system a^T x = b of ``field.solve``: same answer,
    free coordinates 0, None on the same inconsistent systems."""
    rng = random.Random(16)
    seen = set()
    for p in (2, 3, 5, 7):
        for trial in range(30):
            rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
            if trial == 0:
                rows, cols = 5, 90  # 90 rows in a^T: the recursive rref runs
            a = _rand(rng, rows, cols, p)
            if trial % 2:  # consistent: b is a combination of the rows of a
                b = matmul_mod(_rand(rng, 1, rows, p), a, p)[0]
            else:
                b = _rand(rng, 1, cols, p)[0]
            x = solve_mod(a, b, p)
            want = field.solve(_to_fp(a.T, p), [int(v) for v in b])
            seen.add(want is None)
            if want is None:
                assert x is None
            else:
                assert [int(v) for v in x] == want
    assert seen == {True, False}
