"""Minimal generator degrees: known small cases and internal consistency."""

import hashlib
import io
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

import dump_engine
import modcov
from modcov import generators
from modcov.chains import PieceChains
from modcov.covariants import from_weight_poly
from modcov.fastlinalg import matmul_mod
from modcov.formulas import beta_invariants_formula, coinvariant_top_degree_bound
from modcov.generators import (
    GradedEngine,
    _permute_poly,
    algebra_beta,
    coinvariants_dims,
    covariant_beta,
    gamma,
    is_decomposable_covariant,
    is_decomposable_invariant,
    module_generators,
    polynomial_module_beta,
    span_coefficients,
)
from modcov.modules import module_spec
from modcov.poly import (
    Polynomial,
    _compositions,
    delta_power,
    graded_basis,
    is_invariant,
    norm,
)
from oracle import covariant_basis


def _vars(vspec):
    dim = vspec.dim
    return [
        Polynomial.from_monomial(vspec, [1 if k == i else 0 for k in range(dim)])
        for i in range(dim)
    ]


def test_algebra_degrees_single_regular_block():
    # k[V_2]^G = k[x2, N1]
    for p in (2, 3, 5):
        rep = algebra_beta(module_spec(p, [2]))
        assert rep.generator_degrees() == [1, p]
        assert rep.beta == p
        assert rep.certified


def test_algebra_degrees_v3():
    for p in (3, 5):
        rep = algebra_beta(module_spec(p, [3]))
        assert rep.generator_degrees() == [1, 2, p, p]


def test_algebra_degrees_two_blocks_p2():
    rep = algebra_beta(module_spec(2, [2, 2]))
    assert rep.generator_degrees() == [1, 1, 2, 2, 2]


def test_algebra_degrees_with_trivial_block():
    # a trivial summand adds one degree-1 generator and nothing else
    rep = algebra_beta(module_spec(3, [2, 1]))
    assert rep.generator_degrees() == [1, 1, 3]


def test_algebra_beta_three_blocks_p2():
    v = module_spec(2, [2, 2, 2])
    rep = algebra_beta(v)
    value, _ = beta_invariants_formula(v)
    assert rep.beta == value == 3


def test_witnesses_are_invariant_and_match_counts():
    rep = algebra_beta(module_spec(3, [3, 2]))
    for d, w in rep.witnesses.items():
        assert rep.generator_counts[d] > 0
        assert w.total_degree() == d
        assert is_invariant(w)


def test_gamma_and_coinvariants_single_v2():
    # coinvariants of k[x1, x2] mod (x2, N1) are k[x1]/(x1^p)
    for p in (2, 3, 5):
        v = module_spec(p, [2])
        assert gamma(v) == p - 1
        assert coinvariants_dims(v) == [1] * p


def test_coinvariants_respect_certified_bound():
    for p, blocks in [(2, [2, 2]), (3, [3, 2]), (3, [2, 2]), (5, [3])]:
        v = module_spec(p, blocks)
        assert gamma(v) <= coinvariant_top_degree_bound(v)


def test_module_generators_match_coinvariant_dims():
    v = module_spec(3, [2, 2])
    dims = coinvariants_dims(v)
    degs = Counter(g.total_degree() for g in module_generators(v))
    assert degs == Counter({d: c for d, c in enumerate(dims) if c})
    rep = polynomial_module_beta(v)
    assert rep.beta == gamma(v)
    assert rep.generator_counts == {d: c for d, c in enumerate(dims)}


def test_covariant_beta_single_v2_source():
    # k[V_2, V_n]^G is generated in degrees 0 .. n-1
    for p in (3, 5):
        for n in range(1, p + 1):
            rep = covariant_beta(module_spec(p, [2]), module_spec(p, [n]))
            assert rep.beta == n - 1
            assert rep.generator_counts[0] == 1


def test_covariant_beta_known_values():
    assert covariant_beta(module_spec(3, [3]), module_spec(3, [2])).beta == 3
    assert covariant_beta(module_spec(3, [2, 2]), module_spec(3, [2])).beta == 4


def test_covariant_trivial_w_is_generated_in_degree_zero():
    rep = covariant_beta(module_spec(3, [3]), module_spec(3, [1]))
    assert rep.beta == 0
    assert all(c == 0 for d, c in rep.generator_counts.items() if d > 0)


def test_covariant_w_equal_vp_matches_coinvariants():
    # weight <= p is vacuous, so the module is k[V] itself
    v = module_spec(3, [3])
    rep = covariant_beta(v, module_spec(3, [3]))
    dims = coinvariants_dims(v)
    for d, c in enumerate(dims):
        assert rep.generator_counts[d] == c
    assert rep.beta == gamma(v)
    # the counts run through the cap, zero above gamma
    assert list(rep.generator_counts) == list(range(rep.cap_used + 1))
    assert all(rep.generator_counts[d] == 0 for d in range(len(dims), rep.cap_used + 1))
    # k[V] over k[V]^G is one record, shared with the coinvariants
    assert generators._engine(v)._cov[3] is generators._engine(v)._coinv


@pytest.mark.parametrize("p, m", [(2, 1), (3, 2), (5, 3)])
def test_trivial_v_reaches_gamma_zero(p, m):
    # G acts trivially on m V_1: A = k[V] is generated by the m variables,
    # the coinvariants are k in degree 0, and every covariant module is
    # generated by 1
    v = module_spec(p, [1] * m)
    cap = m * p - m
    assert gamma(v) == 0
    assert coinvariants_dims(v) == [1]
    alg = algebra_beta(v)
    assert alg.generator_counts == {1: m, **{d: 0 for d in range(2, max(p, cap) + 1)}}
    assert alg.beta == 1
    for n in range(1, p + 1):
        rep = covariant_beta(v, module_spec(p, [n]))
        assert rep.generator_counts == {0: 1, **{d: 0 for d in range(1, cap + 1)}}
        assert rep.beta == 0


def test_covariant_dims_agree_with_direct_basis():
    v = module_spec(3, [2, 2])
    w = module_spec(3, [2])
    eng = GradedEngine(v)
    for d in range(4):
        direct = len(covariant_basis(v, w, d))
        from modcov.poly import _compositions

        total = sum(
            eng._chains(md).dim_weight_le(2) for md in _compositions(d, 2)
        )
        assert total == direct


def test_covariant_witnesses_have_bounded_weight():
    rep = covariant_beta(module_spec(3, [3]), module_spec(3, [2]))
    for d, w in rep.witnesses.items():
        assert w.total_degree() == d or d == 0
        assert delta_power(w, 2).is_zero()


def test_is_decomposable_invariant():
    v = module_spec(3, [2])
    x1, x2 = _vars(v)
    n1 = norm(v, 1)
    assert not is_decomposable_invariant(x2)
    assert not is_decomposable_invariant(n1)
    assert is_decomposable_invariant(x2 * x2)
    assert is_decomposable_invariant(x2 * n1)
    zero = Polynomial.constant(v, 0)
    assert is_decomposable_invariant(zero)


def test_is_decomposable_invariant_with_supplied_generators():
    v = module_spec(3, [2])
    x1, x2 = _vars(v)
    n1 = norm(v, 1)
    assert is_decomposable_invariant(x2 * n1, lower_gens=[x2, n1])
    assert not is_decomposable_invariant(n1, lower_gens=[x2])


def test_span_coefficients_constant_generator():
    # a constant generator c spans c * (the invariants of the piece); at
    # p = 101 and c = 100 the products leave the int8 residue range
    rng = random.Random(71)
    for v in (module_spec(101, [3]), module_spec(101, [2, 2])):
        for d in (1, 2, 3):
            pc = PieceChains(v, rng.choice(list(_compositions(d, v.num_blocks))))
            inv = pc.weight_le_matrix(1)
            coef = np.array([[rng.randrange(1, v.p) for _ in range(inv.shape[0])]])
            f = pc.index.vector_to_poly(matmul_mod(coef, inv, v.p)[0])
            for c in (1, 2, 100):
                const = Polynomial.constant(v, c)
                qs = span_coefficients(f, [const])
                assert list(qs) == [const]
                assert const * qs[const] == f


def test_is_decomposable_covariant():
    v = module_spec(3, [2])
    w = module_spec(3, [2])
    x1, x2 = _vars(v)
    # x1 has weight 2: a degree-1 generator of k[V_2, V_2]^G
    assert not is_decomposable_covariant(from_weight_poly(x1, w))
    # x2 * x1 = invariant times a lower generator
    assert is_decomposable_covariant(from_weight_poly(x2 * x1, w))
    # above the cap: in A = k[V,V_1]^G an invariant is a multiple of 1, and
    # k[V,V_p]^G = k[V] is generated by the coinvariant lifts
    assert covariant_beta(v, module_spec(3, [3])).cap_used < 7
    x2_7 = Polynomial.from_monomial(v, [0, 7])
    assert is_decomposable_covariant(from_weight_poly(x2_7, module_spec(3, [1])))
    x1_3x2_4 = Polynomial.from_monomial(v, [3, 4])
    assert is_decomposable_covariant(from_weight_poly(x1_3x2_4, module_spec(3, [3])))


def test_covariant_rejects_decomposable_w_and_wrong_prime():
    v = module_spec(3, [2])
    with pytest.raises(ValueError):
        covariant_beta(v, module_spec(3, [2, 2]))
    with pytest.raises(ValueError):
        covariant_beta(v, module_spec(5, [2]))


def test_fresh_engines_agree():
    v = module_spec(3, [3, 2])
    a = GradedEngine(v)
    b = GradedEngine(v)
    a.ensure_algebra()
    b.ensure_algebra()
    assert a._alg.counts == b._alg.counts
    assert a._coinv.counts == b._coinv.counts
    assert a.gamma == b.gamma


@pytest.mark.parametrize("blocks", [(3, 3, 3), (3, 2, 3)])
def test_canonical_md_orbit_transport(blocks):
    v = module_spec(3, list(blocks))
    eng = GradedEngine(v)
    for d in range(5):
        for md in _compositions(d, len(blocks)):
            canon, perm = eng._canonical_md(md)
            for size in set(blocks):
                slots = [i for i, n in enumerate(blocks) if n == size]
                # canonical degrees descend within each block size
                degs = [canon[i] for i in slots]
                assert degs == sorted(degs, reverse=True)
                # equal-size, equal-degree blocks keep their order
                for s, t in combinations(slots, 2):
                    if md[s] == md[t]:
                        assert perm[s] < perm[t]
            for t in range(len(blocks)):
                assert blocks[perm[t]] == blocks[t]
                assert canon[perm[t]] == md[t]
            for mon in graded_basis(v, multidegree=canon):
                f = Polynomial.from_monomial(v, mon)
                assert _permute_poly(f, perm).multidegree() == md


def test_orbit_pieces_get_equal_counts():
    # 2V_3 at p = 3: each piece computed directly has as many generators as
    # its canonical piece and as were transported into it
    eng = GradedEngine(module_spec(3, [3, 3]))
    eng.ensure_covariant(2)
    n2 = eng._cov[2]
    for obj, piece in (
        (eng._alg, lambda md, d: eng._covariant_piece(md, d, 1, eng._alg.gens)),
        (eng._coinv, eng._coinv_piece),
        (n2, lambda md, d: eng._covariant_piece(md, d, 2, n2.gens)),
    ):
        for d in range(1, obj.done + 1):
            for md in _compositions(d, 2):
                direct = len(piece(md, d))
                assert direct == len(piece(eng._canonical_md(md)[0], d))
                assert direct == sum(g.multidegree == md for g in obj.gens)
        assert all(g.poly.multidegree() == g.multidegree for g in obj.gens)


def test_gamma_and_covariant_beta_leave_numpy_ma_unimported():
    # numpy's set routines (setdiff1d, unique, union1d ...) import numpy.ma
    # on first use, which costs about 1.2 MB of peak RSS
    code = (
        "import sys\n"
        "from modcov import generators\n"
        "from modcov.modules import module_spec\n"
        "v = module_spec(3, [3, 2])\n"
        "generators.gamma(v)\n"
        "generators.covariant_beta(v, module_spec(3, [2]))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(modcov.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# sha256 of ``python tests/dump_engine.py``: its counts, caps, certificates,
# witnesses and generators in discovery order
DUMP_SHA256 = "f672e525b398f5f59b885cecfd20e2f09033f44d51282912f36be95089f1eb62"


def test_engine_dump_matches_recorded_hash():
    # a new engine for the first case, as in a fresh interpreter
    generators._engine.cache_clear()
    out = io.StringIO()
    dump_engine.write_dump(out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DUMP_SHA256
