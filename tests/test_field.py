import random

import pytest

from modcov.field import FpMatrix, PrimeField, is_prime, kernel_basis, rref, solve
from oracle import matmul, mul_vector


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 101]
    composites = [0, 1, 4, 6, 9, 15, 49, 100]
    assert all(is_prime(n) for n in primes)
    assert not any(is_prime(n) for n in composites)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_field_inverse():
    F = PrimeField(7)
    for a in range(1, 7):
        assert (a * F.inv(a)) % 7 == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def _random_matrix(rng, F, rows, cols):
    return FpMatrix.from_rows(
        F, [[rng.randrange(F.p) for _ in range(cols)] for _ in range(rows)]
    )


def test_rref_properties():
    rng = random.Random(1)
    for p in (2, 3, 5):
        F = PrimeField(p)
        for _ in range(30):
            m = _random_matrix(rng, F, rng.randrange(1, 6), rng.randrange(1, 6))
            R, pivots, rank = rref(m)
            assert rank == len(pivots)
            assert pivots == sorted(pivots)
            for r, c in enumerate(pivots):
                assert R[r, c] == 1
                # pivot columns are cleared elsewhere
                for r2 in range(R.rows):
                    if r2 != r:
                        assert R[r2, c] == 0


def test_kernel_basis_annihilates():
    rng = random.Random(2)
    for p in (2, 3, 5):
        F = PrimeField(p)
        for _ in range(30):
            m = _random_matrix(rng, F, rng.randrange(1, 6), rng.randrange(1, 6))
            _, _, rank = rref(m)
            basis = kernel_basis(m)
            assert len(basis) == m.cols - rank
            for v in basis:
                assert all(x == 0 for x in mul_vector(m, v))


def test_solve_verified():
    rng = random.Random(3)
    for p in (2, 3):
        F = PrimeField(p)
        for _ in range(40):
            rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
            m = _random_matrix(rng, F, rows, cols)
            b = [rng.randrange(p) for _ in range(rows)]
            x = solve(m, b)
            if x is not None:
                assert mul_vector(m, x) == [v % p for v in b]
            else:
                # small enough to brute-force every candidate solution
                def all_vectors(k):
                    if k == 0:
                        yield []
                        return
                    for rest in all_vectors(k - 1):
                        for v in range(p):
                            yield [v] + rest

                assert all(
                    mul_vector(m, cand) != [v % p for v in b]
                    for cand in all_vectors(cols)
                )


def test_solve_of_consistent_system():
    F = PrimeField(5)
    m = FpMatrix.from_rows(F, [[1, 2], [3, 4]])
    x = solve(m, [1, 0])
    assert mul_vector(m, x) == [1, 0]


def test_matmul_matches_by_hand():
    F = PrimeField(3)
    a = FpMatrix.from_rows(F, [[1, 2], [0, 1]])
    b = FpMatrix.from_rows(F, [[1, 1], [2, 0]])
    c = matmul(a, b)
    assert c == FpMatrix.from_rows(F, [[2, 1], [2, 0]])
