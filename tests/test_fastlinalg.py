"""The numpy-backed linear algebra, cross-checked against the pure-Python
oracle in ``field``."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcov import fastlinalg, field
from modcov.fastlinalg import (
    _BASE_ROWS,
    Echelon,
    _check_exact,
    _dtype,
    _ftype,
    _reduce_against,
    _reduce_into,
    asmod,
    matmul_mod,
    rref_mod,
    solve_mod,
)
from oracle import matmul

# small primes, both sides of the int8 storage limit (128), and a prime
# whose squared residues are near 2^30
EDGE_PRIMES = (2, 3, 5, 7, 181, 191, 32749)
# the largest prime with (p-1)^2 + p < 2^53: one product term reaches the
# float64 bound
TOP_PRIME = 94906249
# the largest prime with (p-1)^2 + p < 2^24: one term reaches float32's
TOP_PRIME32 = 4093


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
            slow = matmul(_to_fp(a, p), _to_fp(b, p))
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


def test_add_rows_checks_residue_rows_and_reduces_the_rest():
    ech = Echelon(5, 3)
    for bad in ([[5, 0, 0]], [[0, -1, 0]]):  # residue dtype, out of [0, p)
        with pytest.raises(ValueError):
            ech.add_rows(np.array(bad, dtype=_dtype(5)))
    assert ech.rank == 0
    assert ech.add_rows(np.array([[7, -1, 0]])) == [0]  # int64: reduced to [2, 4, 0]
    assert ech.rows.tolist() == [[1, 2, 0]]


def test_add_rows_of_an_empty_batch_changes_nothing(monkeypatch):
    ech = Echelon(5, 3)
    ech.add_rows(np.array([[1, 2, 0], [0, 0, 3]]))
    rows, pivcols = ech.rows, ech.pivcols

    def merge(*args):
        raise AssertionError("an empty batch reached _merge")

    monkeypatch.setattr(fastlinalg, "_merge", merge)
    for empty in (np.zeros((0, 3), dtype=_dtype(5)), np.zeros((0, 3), dtype=np.int64)):
        assert ech.add_rows(empty) == []
        assert ech.rows is rows and ech.pivcols is pivcols


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


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_floor_reduction_is_exact_at_its_edges(p):
    """x - floor(x/p)*p with its correction step equals Python's x % p on
    exact multiples of p and their neighbours, on values just under the
    bound |x| + p < 2^53 (where x*(1/p) rounds across integers), on
    negative values, and on random values over the whole range."""
    top = 2**53 - p - 1
    vals = set()
    for k in (0, 1, 2, 3, 10**6, top // p - 1, top // p):
        for r in (-1, 0, 1):
            vals.update((k * p + r, -(k * p + r)))
    for j in range(3 * p):
        vals.update((top - j, j - top))
    rng = np.random.default_rng(p)
    vals.update(int(v) for v in rng.integers(-top, top, 10**5, endpoint=True))
    vals = sorted(v for v in vals if abs(v) <= top)
    x = np.array(vals, dtype=np.float64)
    assert [int(v) for v in x] == vals  # every value is held exactly
    out = _reduce_into(x, p, np.empty(len(vals), dtype=_dtype(p)))
    assert out.tolist() == [v % p for v in vals]


@pytest.mark.parametrize("p", (2, 3, 5, 7, 13))
def test_float32_floor_reduction_is_exact_at_its_edges(p):
    """In float32, x*(1/p) is off from x/p by less than 1 while |x| < 2^24,
    so the floor trick with its correction step equals x % p on every
    integer with |x| <= 2^24 - p: every residue, every multiple of p and
    its neighbours, and both ends, in blocks of 2^22."""
    top = 2**24 - p
    for s in range(-top, top + 1, 1 << 22):
        vals = np.arange(s, min(s + (1 << 22), top + 1))
        x = vals.astype(np.float32)
        assert np.array_equal(x.astype(np.int64), vals)  # held exactly
        out = _reduce_into(x, p, np.empty(len(vals), dtype=_dtype(p)))
        assert np.array_equal(out, vals % p)


def _spy_ftypes(monkeypatch):
    """Record the float type of every product ``_reduce_into`` reduces."""
    seen, reduce_into = [], fastlinalg._reduce_into

    def spy(x, p, out):
        seen.append(x.dtype.type)
        return reduce_into(x, p, out)

    monkeypatch.setattr(fastlinalg, "_reduce_into", spy)
    return seen


def test_products_switch_to_float64_one_term_past_the_float32_bound(monkeypatch):
    """At p = 5 a product over k <= 1,048,575 terms runs in float32 and one
    over 1,048,576 in float64; both equal the integer product mod p."""
    p, seen = 5, _spy_ftypes(monkeypatch)
    rng = np.random.default_rng(22)
    for k, ft in ((2**20 - 1, np.float32), (2**20, np.float64)):
        assert _ftype(k, p) is ft
        a = rng.integers(0, p, (3, k))
        b = rng.integers(0, p, (k, 2))
        a[-1], b[:, -1] = p - 1, p - 1  # the largest sum, k*(p-1)^2
        seen.clear()
        assert matmul_mod(a, b, p).tolist() == (a @ b % p).tolist()
        assert seen == [ft]


def test_reduce_against_at_the_float32_bound(monkeypatch):
    """One pivot at TOP_PRIME32 puts -(p-1)^2 just above -2^24 + p and stays
    exact in float32; two pivots pass the bound and run in float64."""
    p, seen = TOP_PRIME32, _spy_ftypes(monkeypatch)
    rows = np.array([[1, 0, p - 1], [0, 1, p - 1]])
    m = np.array([[p - 1, 0, 0], [p - 1, p - 1, 5]])
    got = _reduce_against(asmod(m[:1], p), asmod(rows[:1], p), np.array([0]), p)
    assert got.tolist() == _reduce_oracle(m[:1], rows[:1], [0], p) == [[0, 0, p - 1]]
    got = _reduce_against(asmod(m, p), asmod(rows, p), np.array([0, 1]), p)
    assert got.tolist() == _reduce_oracle(m, rows, [0, 1], p)
    assert seen == [np.float32, np.float64]


def _reduce_oracle(m, rows, pivcols, p):
    m, rows = m.astype(object), rows.astype(object)
    return ((m - m[:, pivcols] @ rows) % p).tolist()


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_reduce_against_matches_integer_arithmetic(p):
    """m - m[:, pivcols] @ rows is mostly negative; its residues must be
    exact.  The all-(p-1) rows give the most negative values."""
    rng = np.random.default_rng(18)
    k, n = 40, 30
    rows = np.concatenate([np.eye(k, dtype=np.int64), rng.integers(0, p, (k, n))], axis=1)
    m = rng.integers(0, p, (25, k + n))
    rows[-1, k:] = p - 1
    m[-1] = p - 1
    got = _reduce_against(asmod(m, p), asmod(rows, p), np.arange(k), p)
    assert got.dtype == _dtype(p)
    assert got.tolist() == _reduce_oracle(m, rows, np.arange(k), p)


def test_reduce_against_at_and_past_its_bound():
    """One pivot at TOP_PRIME puts -(p-1)^2 just above -2^53 and is exact;
    two pivots pass k*(p-1)^2 + p < 2^53 and are refused."""
    p = TOP_PRIME
    rows = np.array([[1, 0, p - 1], [0, 1, p - 1]])
    m = np.array([[p - 1, 0, 0], [p - 1, p - 1, 5]])
    got = _reduce_against(asmod(m[:1], p), asmod(rows[:1], p), np.array([0]), p)
    assert got.tolist() == _reduce_oracle(m[:1], rows[:1], [0], p) == [[0, 0, p - 1]]
    assert matmul_mod(np.array([[p - 1]]), np.array([[p - 1]]), p).tolist() == [[1]]
    with pytest.raises(OverflowError):
        _reduce_against(asmod(m, p), asmod(rows, p), np.array([0, 1]), p)
    # the bound leaves room for the reduction: k*(p-1)^2 + p, not k*(p-1)^2
    _check_exact(2**53 - 3, 2)
    with pytest.raises(OverflowError):
        _check_exact(2**53 - 2, 2)


@pytest.mark.parametrize("p", (23, 29, 181, 191, 32749, 2**31 - 1))
def test_rref_base_holds_its_largest_products(p):
    """The base step's entries fall by up to (p-1)^2 per pivot: int16 holds
    ``_BASE_ROWS`` such steps up to p = 23, int64 past it, and at
    p = 2^31 - 1 only two, so there the block is reduced every second
    pivot.  Two blocks of ``_BASE_ROWS`` rows: random entries p-2 and p-1,
    and one built so that every pivot takes exactly (p-1)^2 off the last
    columns of every row below it: 1 on the diagonal, p-1 below it, and
    i - 1 mod p in the last columns of row i, so they read -1 when the row
    is reached."""
    k = _BASE_ROWS
    worst = np.tril(np.full((k, k + 6), p - 1), -1) + np.eye(k, k + 6, dtype=np.int64)
    worst[:, k:] = (np.arange(k)[:, None] - 1) % p
    rng = np.random.default_rng(p)
    for m in (rng.integers(p - 2, p, (k, k + 6)), worst):
        rows, pivs, _ = rref_mod(m, p)
        want_rows, want_pivs = _int_rref_oracle(m, p)
        assert pivs.tolist() == want_pivs
        assert rows.tolist() == want_rows


def _int_rref_oracle(m, p):
    """Gauss-Jordan on Python integers, for primes past ``field``'s 2^15:
    the rref rows of m mod p and their pivot columns, by pivot column."""
    rows, pivs = [], []
    for v in m.tolist():
        v = [x % p for x in v]
        for b, c in zip(rows, pivs):
            v = [(x - v[c] * y) % p for x, y in zip(v, b)]
        c = next((j for j, x in enumerate(v) if x), None)
        if c is None:
            continue
        v = [x * pow(v[c], p - 2, p) % p for x in v]
        rows = [[(x - b[c] * y) % p for x, y in zip(b, v)] for b in rows] + [v]
        pivs.append(c)
    order = sorted(range(len(pivs)), key=pivs.__getitem__)
    return [rows[i] for i in order], [pivs[i] for i in order]


def _greedy_rref_oracle(m, p):
    """field.rref of m, and per pivot column the first row of m whose
    reduction against the rref of the rows before it has its leading entry
    there (that row is independent of the rows before it)."""
    basis, bpivs, origin = [], [], {}
    for i, row in enumerate(m.tolist()):
        v = [x % p for x in row]
        for b, c in zip(basis, bpivs):
            v = [(x - v[c] * y) % p for x, y in zip(v, b)]
        lead = next((j for j, x in enumerate(v) if x), None)
        if lead is not None:
            origin[lead] = i
            R, bpivs, rank = field.rref(_to_fp(np.array(basis + [v]), p))
            basis = [R.row(r) for r in range(rank)]
    R, pivs, rank = field.rref(_to_fp(m, p))
    assert pivs == bpivs
    return [R.row(r) for r in range(rank)], pivs, [origin[c] for c in pivs]


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(EDGE_PRIMES),
    nrows=st.integers(1, 2 * _BASE_ROWS + 20),
    ncols=st.integers(1, 8),
    rank=st.integers(0, 8),
    zeros=st.floats(0, 0.6),
    repeats=st.floats(0, 0.6),
    seed=st.integers(0, 2**32 - 1),
)
def test_rref_mod_matches_field_rref_and_greedy_origins(
    p, nrows, ncols, rank, zeros, repeats, seed
):
    """Rows, pivots and origins of rref_mod on low-rank matrices with zero
    and repeated rows, above and below the base-case size."""
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, (nrows, rank)) @ rng.integers(0, p, (rank, ncols)) % p
    kind = rng.random(nrows)
    for i in range(1, nrows):
        if kind[i] < repeats:
            m[i] = m[rng.integers(0, i)]
    m[kind > 1 - zeros] = 0
    rows, pivs, origins = rref_mod(m, p)
    want_rows, want_pivs, want_origins = _greedy_rref_oracle(m, p)
    assert rows.tolist() == want_rows
    assert pivs.tolist() == want_pivs
    assert origins == want_origins


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("layout", ("interleaved", "top-zero", "bottom-zero", "low-rank"))
def test_rref_mod_drops_zero_rows_keeping_origins(p, layout):
    """Wide matrices with repeated rows, and zero rows between the others,
    or a zero half (so a whole recursion half is dropped), or rank below
    ``_BASE_ROWS`` (so every merge past the first reduces to zero rows):
    rows, pivots and origins as in the greedy oracle.  Inserting the rows
    again into a full echelon adds nothing and changes nothing."""
    rng = np.random.default_rng(p)
    rank = 30 if layout == "low-rank" else 80
    m = rng.integers(0, p, (300, rank)) @ rng.integers(0, p, (rank, 200)) % p
    for i in np.flatnonzero(rng.random(300) < 0.4)[1:]:
        m[i] = m[rng.integers(0, i)]  # repeats: zero rows once reduced
    zero = {
        "interleaved": slice(None, None, 2),
        "top-zero": slice(None, 150),
        "bottom-zero": slice(150, None),
        "low-rank": slice(0),
    }[layout]
    m[zero] = 0
    rows, pivs, origins = rref_mod(m, p)
    want_rows, want_pivs, want_origins = _greedy_rref_oracle(m, p)
    assert rows.tolist() == want_rows
    assert pivs.tolist() == want_pivs
    assert origins == want_origins
    ech = Echelon(p, m.shape[1])
    ech.add_rows(m)
    ech.add_rows(np.eye(m.shape[1], dtype=np.int64))
    full_rows, full_pivs = ech.rows.copy(), ech.pivcols.copy()
    assert ech.add_rows(m) == []
    assert np.array_equal(ech.rows, full_rows)
    assert np.array_equal(ech.pivcols, full_pivs)
