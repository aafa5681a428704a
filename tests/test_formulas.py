"""Closed-form bounds, case labels, and explicit generator lists."""

import pytest

from modcov import formulas as F
from modcov.generators import algebra_beta
from modcov.modules import module_spec
from modcov.poly import delta
from oracle import is_decomposable_invariant, known_generators


def test_reduce_v():
    red, stripped = F.reduce_V(module_spec(3, [3, 1, 2, 1]))
    assert red.blocks == (3, 2)
    assert stripped == 2
    same, none = F.reduce_V(module_spec(3, [3, 2]))
    assert same.blocks == (3, 2) and none == 0


def test_invariant_formula_cases():
    cases = [
        (5, [4], 7, F.SOME_BLOCK_GT_3),
        (5, [4, 4], 11, F.SOME_BLOCK_GT_3),
        (3, [3, 2], 5, F.MAX_BLOCK_3),
        (5, [3], 5, F.MAX_BLOCK_3),
        (3, [2], 3, F.ALL_BLOCKS_2_M1),
        (2, [2], 2, F.ALL_BLOCKS_2_M1),
        (3, [2, 2], 3, F.ALL_BLOCKS_2_M2),
        (5, [2, 2], 5, F.ALL_BLOCKS_2_M2),
        (2, [2, 2, 2], 3, F.ALL_BLOCKS_2_MGE2),
        (3, [2, 2, 2], 6, F.ALL_BLOCKS_2_MGE2),
    ]
    for p, blocks, value, label in cases:
        assert F.beta_invariants_formula(module_spec(p, blocks)) == (value, label)


def test_invariant_formula_requires_reduced():
    with pytest.raises(ValueError):
        F.beta_invariants_formula(module_spec(3, [2, 1]))


def test_covariant_formula_cases():
    # trivial W summands never matter
    assert F.beta_covariants_formula(
        module_spec(3, [3]), module_spec(3, [1, 1])
    ) == (0, F.W_TRIVIAL)
    # reduced V = V_2: value depends on the largest W summand
    assert F.beta_covariants_formula(
        module_spec(5, [2]), module_spec(5, [3])
    ) == (2, F.V2_EXCEPTION)
    assert F.beta_covariants_formula(
        module_spec(5, [2, 1]), module_spec(5, [3, 2, 1])
    ) == (2, F.V2_EXCEPTION)
    # everywhere else the invariant formula applies, independent of W
    assert F.beta_covariants_formula(
        module_spec(3, [3]), module_spec(3, [2])
    ) == (3, F.MAX_BLOCK_3)
    assert F.beta_covariants_formula(
        module_spec(3, [2, 2]), module_spec(3, [3])
    ) == (4, F.ALL_BLOCKS_2_MGE2)


def test_covariant_formula_rejects_mixed_primes():
    with pytest.raises(ValueError):
        F.beta_covariants_formula(module_spec(3, [2]), module_spec(5, [2]))


def test_covariant_formula_names_a_trivial_v():
    # V = 2V_1: nothing is left after reduction; W = V_1 still gives 0
    v = module_spec(2, [1, 1])
    assert F.beta_covariants_formula(v, module_spec(2, [1])) == (0, F.W_TRIVIAL)
    with pytest.raises(ValueError, match="at least one block of size > 1"):
        F.beta_covariants_formula(v, module_spec(2, [2, 2]))


def test_known_generators_v3():
    for p in (3, 5):
        v = module_spec(p, [3])
        gens = known_generators(v)
        assert sorted(g.total_degree() for g in gens) == [1, 2, p, p]
        assert all(delta(g).is_zero() for g in gens)
        # each is genuinely needed given the others of lower degree
        for g in gens:
            others = [h for h in gens if h is not g]
            assert not is_decomposable_invariant(g, lower_gens=others)
        assert sorted(g.total_degree() for g in gens) == algebra_beta(
            v
        ).generator_degrees()


def test_known_generators_two_v2():
    for p in (2, 3, 5):
        v = module_spec(p, [2, 2])
        gens = known_generators(v)
        assert sorted(g.total_degree() for g in gens) == [1, 1, 2, p, p]
        assert all(delta(g).is_zero() for g in gens)
        for g in gens:
            others = [h for h in gens if h is not g]
            assert not is_decomposable_invariant(g, lower_gens=others)
        assert sorted(g.total_degree() for g in gens) == algebra_beta(
            v
        ).generator_degrees()
    assert known_generators(module_spec(3, [3, 2])) == []


def test_coinvariant_top_degree_bounds():
    assert F.coinvariant_top_degree_bound(module_spec(5, [4, 4])) == 11
    assert F.coinvariant_top_degree_bound(module_spec(3, [3, 2])) == 5
    assert F.coinvariant_top_degree_bound(module_spec(3, [2, 2])) == 4
    with pytest.raises(ValueError):
        F.coinvariant_top_degree_bound(module_spec(3, [1, 2]))
