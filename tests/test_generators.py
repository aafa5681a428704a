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
import dump_structure
import modcov
from modcov import generators
from modcov.chains import PieceChains, Terms
from modcov.covariants import from_weight_poly
from modcov.fastlinalg import Echelon, matmul_mod, rref_mod
from modcov.formulas import beta_invariants_formula, coinvariant_top_degree_bound
from modcov.generators import (
    GradedEngine,
    _Graded,
    _transport,
    algebra_beta,
    coinvariants_dims,
    covariant_beta,
    gamma,
    module_generators,
    polynomial_module_beta,
    span_coefficients,
)
from modcov.modules import module_spec
from modcov.poly import (
    Polynomial,
    _compositions,
    delta,
    delta_power,
    graded_basis,
    norm,
    var_index,
)
from oracle import (
    covariant_basis,
    is_decomposable_covariant,
    is_decomposable_invariant,
    permute_poly,
)


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
        assert delta(w).is_zero()


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


def test_span_coefficients_on_an_all_invariant_piece():
    # in V_2 + V_1 a piece with degree only in the trivial block is all
    # invariant: its span basis is the monomials, read off without a product
    v = module_spec(3, [2, 1])
    x1, x2, y = _vars(v)
    f = y * y * y + 2 * x2 * y * y
    qs = span_coefficients(f, [y, x2])
    assert sum((q * g for g, q in qs.items()), Polynomial.constant(v, 0)) == f
    assert span_coefficients(x1 * y * y, [y, x2]) is None


def test_span_rows_stay_int8():
    # the span of a piece is one concatenation of these blocks, so a single
    # int64 block (the degree-0 generator's rows) makes all of it int64
    v = module_spec(5, [3, 2])
    eng = GradedEngine(v)
    eng.ensure_covariant(2)
    gens = eng._cov[2].terms()
    assert any(g.degree == 0 for g in gens)
    for d in (1, 2, 3):
        for md in _compositions(d, v.num_blocks):
            for *_, prod in eng._span_rows(md, d, gens, 1):
                assert prod.dtype == np.int8


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
                assert _transport(f, perm).multidegree() == md


def _same_terms(got, want):
    return (
        got.poly == want.poly
        and (got.degree, got.multidegree) == (want.degree, want.multidegree)
        and got.exps.dtype == want.exps.dtype and np.array_equal(got.exps, want.exps)
        and got.coefs.dtype == want.coefs.dtype and np.array_equal(got.coefs, want.coefs)
    )


def test_generators_carry_the_term_arrays_of_their_polynomial():
    # only the objects whose generators span get Terms records, each the
    # arrays read from its generator; a transported generator permutes the
    # exponent columns of its canonical one, in the same term order: the
    # term-by-term relabeling
    eng = GradedEngine(module_spec(3, [3, 3, 2]))
    eng.ensure_covariant(2)
    assert eng._coinv._terms == [] and eng._cov[3] is eng._coinv
    assert 0 < len(eng._alg._terms) <= len(eng._alg.gens)
    # the records are a cache: not part of the object's value
    copy = _Graded(dict(eng._alg.counts), list(eng._alg.gens), eng._alg.done)
    assert copy == eng._alg and "_terms" not in repr(copy)
    transported = 0
    for obj in (eng._alg, eng._coinv, eng._cov[2]):
        if obj is not eng._coinv:
            for g, f in zip(obj.terms(), obj.gens, strict=True):
                assert g.poly is f and _same_terms(g, Terms(f))
                assert g.degree == sum(g.multidegree) and g.multidegree == f.multidegree()
        for f in obj.gens:
            transported += eng._canonical_md(f.multidegree())[0] != f.multidegree()
            moved = _transport(f, [1, 0, 2])  # swap the two V_3 blocks
            want = permute_poly(f, [1, 0, 2])
            assert moved == want and list(moved.terms) == list(want.terms)
    assert transported > 50


@pytest.mark.parametrize(
    "p, blocks", [(2, (2, 2, 1)), (3, (3, 2)), (3, (2, 1)), (5, (3, 2)), (5, (4, 1)), (7, (2, 2))]
)
def test_algebra_spans_from_generators_up_to_half_the_degree(p, blocks):
    # (A_+^2)_d is spanned by g * A_(d - deg g) over the generators g with
    # 2 deg g <= d: on every canonical piece through the algebra cap the
    # rows ensure_algebra spans from give the echelon of all lower generators
    eng = GradedEngine(module_spec(p, blocks))
    calls, piece = [], eng._covariant_piece

    def spy(md, d, n, gens, k):
        if n == 1:
            calls.append((md, d, list(gens)))
        return piece(md, d, n, gens, k)

    eng._covariant_piece = spy
    eng.ensure_algebra()
    cap = eng.algebra_cap()
    canonical = [
        (md, d) for d in range(1, cap + 1) for md in _compositions(d, len(blocks))
        if eng._canonical_md(md)[0] == md
    ]
    assert [(md, d) for md, d, _ in calls][: len(canonical)] == canonical

    def echelon(md, d, gens):
        ech = Echelon(p, eng._chains(md).index.size)
        ech.add_rows(np.concatenate([ech.rows] + [r for *_, r in eng._span_rows(md, d, gens, 1)]))
        return ech

    for md, d, gens in calls:
        half = echelon(md, d, gens)
        full = echelon(md, d, [g for g in eng._alg.terms() if g.degree < d])
        assert np.array_equal(half.rows, full.rows)
        assert np.array_equal(half.pivcols, full.pivcols)


def test_orbit_pieces_get_equal_counts():
    # 2V_3 at p = 3: each piece computed directly has as many generators as
    # its canonical piece and as were transported into it
    eng = GradedEngine(module_spec(3, [3, 3]))
    eng.ensure_covariant(2)
    n2 = eng._cov[2]
    for obj, piece in (
        (eng._alg, lambda md, d: eng._covariant_piece(md, d, 1, eng._alg.terms(), 1)),
        (eng._coinv, lambda md, d: eng._covariant_piece(md, d, 3, eng._alg.terms(), 3)),
        (n2, lambda md, d: eng._covariant_piece(md, d, 2, n2.terms(), 1)),
    ):
        for d in range(1, obj.done + 1):
            for md in _compositions(d, 2):
                direct = len(piece(md, d))
                assert direct == len(piece(eng._canonical_md(md)[0], d))
                assert direct == sum(f.multidegree() == md for f in obj.gens)


@pytest.mark.parametrize("p, blocks", [(3, [3, 3]), (5, [3, 2])])
def test_span_duality(p, blocks):
    # A_+M = sum over module generators h of A_+ * h = sum over algebra
    # generators g of g * M: for M = {f : Delta^n f = 0} the rows of both
    # forms span the same subspace of every piece through the covariant cap
    eng = GradedEngine(module_spec(p, blocks))
    eng.ensure_algebra()
    cap = eng.covariant_cap()

    def span_rref(md, d, gens, k):
        empty = np.zeros((0, eng._chains(md).index.size), np.int8)
        rows = [empty] + [prod for *_, prod in eng._span_rows(md, d, gens, k)]
        return rref_mod(np.concatenate(rows), p)[0]

    for n in range(2, p + 1):
        eng.ensure_covariant(n)
        for d in range(1, cap + 1):
            for md in _compositions(d, len(blocks)):
                alg = span_rref(md, d, eng._alg.terms(), n)
                assert np.array_equal(alg, span_rref(md, d, eng._cov[n].terms(), 1))


def _rank(rows, p):
    return len(rref_mod(np.concatenate(rows), p)[1])


@pytest.mark.parametrize("p, blocks", [(5, (3, 2)), (7, (2, 2))])
def test_filtration_pass_matches_the_per_level_route(p, blocks):
    # the pass grows one span per piece across n from the T_n; the per-level
    # route eliminates A_+ G_n for one n at a time.  Every piece through the
    # cap gets the same generators (a canonical piece the same rows, a
    # transported one as many), T_n completes (A_+M^(n) + M^(n-1))_md to
    # M^(n)_md with exactly as many elements as that lacks, and level n > 2
    # spans only from T_n (A_+ G_n would give the same span, from more rows)
    eng = GradedEngine(module_spec(p, blocks))
    eng.ensure_algebra()
    used, span_rows = [], eng._span_rows
    eng._span_rows = lambda md, d, gens, k: used.append(gens) or span_rows(md, d, gens, k)
    eng.ensure_covariant(2)
    eng._span_rows = span_rows
    levels = [eng._cov[2].terms()] + [eng._fresh[n].terms() for n in range(3, p)]
    assert used and all(any(gens is t_n for t_n in levels) for gens in used)
    for n in range(2, p):
        gens = eng._cov[n].terms()
        for d in range(1, eng.covariant_cap() + 1):
            for md in _compositions(d, len(blocks)):
                direct = eng._covariant_piece(md, d, n, gens, 1)
                found = [g.poly for g in gens if g.multidegree == md]
                if eng._canonical_md(md)[0] == md:
                    assert direct == found
                assert len(direct) == len(found)
                pc = eng._chains(md)
                span = [pc.weight_le_matrix(n - 1)]
                span += [prod for *_, prod in eng._span_rows(md, d, gens, 1)]
                t_n = eng._fresh[n].terms() if n > 2 else gens  # T_1 and T_2 make up G_2
                fresh = [g.poly for g in t_n if g.multidegree == md]
                fresh = np.array([pc.index.poly_to_vector(f) for f in fresh], dtype=np.int64)
                low = _rank(span, p)
                top = _rank(span + [fresh.reshape(-1, pc.index.size)], p)
                assert low + len(fresh) == top == pc.dim_weight_le(n)


def test_covariant_levels_do_not_depend_on_request_order():
    # the first request for any 1 < n < p fills every level through the
    # cap, one `done` for all; asking past the cap extends them all
    v = module_spec(5, [3, 2])
    ascending, descending = GradedEngine(v), GradedEngine(v)
    ascending.ensure_covariant(2)
    cap = ascending.covariant_cap()
    assert {ascending._cov[n].done for n in (2, 3, 4)} == {cap}
    for n in (3, 4):
        ascending.ensure_covariant(n)
    for n in (4, 3, 2):
        descending.ensure_covariant(n)
    generators._engine.cache_clear()
    try:
        # sigma fixes the bottom variable x_{3,1} of V_3: f has weight 1
        exps = [cap + 2 if k == var_index(v, 3, 1) else 0 for k in range(v.dim)]
        f = Polynomial.from_monomial(v, exps)
        assert is_decomposable_covariant(from_weight_poly(f, module_spec(5, [3])))
        through = generators._engine(v)
    finally:
        generators._engine.cache_clear()
    engines = (ascending, descending, through)
    for eng, done in zip(engines, (cap, cap, cap + 2)):
        assert {eng._cov[n].done for n in (2, 3, 4)} == {done}
        assert {eng._fresh[n].done for n in (3, 4)} == {done}
    for n in (2, 3, 4):
        reports = [generators._report("m", eng._cov[n], cap, "") for eng in engines]
        assert reports[0] == reports[1] == reports[2]
        gens = [[f for f in eng._cov[n].gens if f.total_degree() <= cap] for eng in engines]
        assert gens[0] == gens[1] == gens[2]


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
DUMP_SHA256 = "3fd64ba41117f64bb916fb6b27b7f905afeb7bb7882db18acb784916a7ef9eb3"


def test_engine_dump_matches_recorded_hash():
    # a new engine for the first case, as in a fresh interpreter
    generators._engine.cache_clear()
    out = io.StringIO()
    dump_engine.write_dump(out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DUMP_SHA256


def _perturb_chain_bases(monkeypatch, seed):
    """Give every PieceChains another chain basis of its piece: each chain
    scaled by a random unit, the chains permuted, and each chain `a` given
    a random multiple of another chain `b`, shifted up s levels.  Level k
    of `a` gains level k - s of `b` (nothing below s), so `a` stays a
    Delta-chain when the top of `b` lands at or below its own:
    s >= len(a) - len(b)."""
    rng = random.Random(seed)
    init = PieceChains.__init__

    def perturbed(self, vspec, md):
        init(self, vspec, md)
        p = vspec.p
        starts = np.flatnonzero(self.level == 0)
        ends = starts + self.above[starts] + 1
        chains = [
            self.rows[s:e].astype(np.int64) * rng.randrange(1, p) for s, e in zip(starts, ends)
        ]
        rng.shuffle(chains)
        for i, a in enumerate(chains):
            j = rng.randrange(len(chains))
            shift = rng.randrange(max(0, len(a) - len(chains[j])), len(a))
            if j != i:
                a[shift:] += rng.randrange(p) * chains[j][: len(a) - shift]
        lengths = np.array([len(c) for c in chains])
        self.rows = (np.concatenate(chains) % p).astype(self.rows.dtype)
        self.level = np.concatenate([np.arange(n) for n in lengths])
        self.above = np.repeat(lengths, lengths) - 1 - self.level

    monkeypatch.setattr(PieceChains, "__init__", perturbed)


def _dumps(make, args):
    generators._engine.cache_clear()
    try:
        return [make(*a) for a in args]
    finally:
        generators._engine.cache_clear()


def test_engine_outputs_do_not_depend_on_the_chain_basis(monkeypatch):
    # a new generator is a row of the rref of its piece, never a chain row
    cases = [(3, (3, 2)), (3, (2, 2, 2)), (5, (3, 2)), (5, (5,)), (7, (2, 2)), (3, (2, 1))]
    expected = _dumps(dump_engine.dump, cases)
    _perturb_chain_bases(monkeypatch, 64)
    assert _dumps(dump_engine.dump, cases) == expected


def _norm_sections(lines):
    """The lines of the norm splittings in a structure dump."""
    keep, out = False, []
    for line in lines:
        if line.startswith(" ") and not line.startswith("  "):  # a section header
            keep = line.startswith(" norm")
        if keep:
            out.append(line)
    return out


def test_norm_splitting_does_not_depend_on_the_chain_basis(monkeypatch):
    # u is reduced modulo ker Delta^k; the transfer pairs are not compared:
    # span_coefficients solves in chain coordinates and follows the basis
    seeds = [(s,) for s in range(1, 4)]
    expected = [_norm_sections(lines) for lines in _dumps(dump_structure.dump, seeds)]
    assert all(expected)
    _perturb_chain_bases(monkeypatch, 65)
    assert [_norm_sections(lines) for lines in _dumps(dump_structure.dump, seeds)] == expected
