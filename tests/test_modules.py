import random

import pytest

from modcov.field import FpMatrix
from modcov.modules import delta_on_w, module_spec, sigma_on_w
from oracle import block_sigma_matrix, decompose_by_delta_ranks, sigma_matrix


def test_module_spec_validation():
    with pytest.raises(ValueError):
        module_spec(4, [2])  # p not prime
    with pytest.raises(ValueError):
        module_spec(3, [4])  # block larger than p
    with pytest.raises(ValueError):
        module_spec(3, [0])
    v = module_spec(3, [3, 2, 1])
    assert v.dim == 6
    assert v.num_blocks == 3
    assert not v.is_reduced
    assert module_spec(5, [4, 2]).is_reduced


def test_sigma_on_w_signs():
    w = module_spec(5, [4])
    # sigma(w_i) = sum_{j<=i} (-1)^(i-j) w_j
    assert sigma_on_w(w, 1) == [1, 0, 0, 0]
    assert sigma_on_w(w, 2) == [4, 1, 0, 0]
    assert sigma_on_w(w, 3) == [1, 4, 1, 0]
    assert delta_on_w(w, 1) == [0, 0, 0, 0]


def test_sigma_matrix_has_order_p():
    for p, blocks in [(2, [2]), (3, [3, 2]), (5, [4, 3, 1])]:
        w = module_spec(p, blocks)
        s = sigma_matrix(w)
        acc = FpMatrix.identity(w.field, w.dim)
        for _ in range(p):
            acc = acc.matmul(s)
        assert acc == FpMatrix.identity(w.field, w.dim)


def test_decompose_recovers_blocks():
    rng = random.Random(20)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        blocks = [rng.randrange(1, p + 1) for _ in range(rng.randrange(1, 4))]
        w = module_spec(p, blocks)
        counts = decompose_by_delta_ranks(sigma_matrix(w))
        expect = {}
        for b in blocks:
            expect[b] = expect.get(b, 0) + 1
        assert dict(counts) == expect


def test_decompose_rejects_wrong_order():
    w = module_spec(3, [2])
    m = FpMatrix.from_rows(w.field, [[2, 0], [0, 1]])  # order 2, not 3
    with pytest.raises(ValueError):
        decompose_by_delta_ranks(m)


def test_block_sigma_matrix_columns():
    w = module_spec(3, [3])
    s = block_sigma_matrix(w)
    # column i is sigma(w_i): alternating signs below the diagonal
    assert [s[r, 0] for r in range(3)] == [1, 0, 0]
    assert [s[r, 1] for r in range(3)] == [2, 1, 0]
    assert [s[r, 2] for r in range(3)] == [1, 2, 1]
