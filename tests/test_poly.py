import math
import random

import numpy as np
import pytest

from modcov.field import FpMatrix, rref
from modcov.modules import module_spec
from modcov.poly import (
    Polynomial,
    _compositions,
    _packed_keys,
    apply_sigma,
    delta,
    delta_power,
    delta_power_preimage,
    divide_by_norm,
    graded_basis,
    invariant_basis,
    norm,
    sigma_terms,
    transfer,
    var_index,
    weight,
)
from oracle import (
    apply_sigma_by_terms,
    compositions,
    graded_piece_block_structure,
    homogeneous_components,
    orbit_sum,
    random_poly,
)

SPECS = [
    module_spec(2, [2]),
    module_spec(3, [2]),
    module_spec(3, [3]),
    module_spec(3, [2, 2]),
    module_spec(5, [4]),
    module_spec(5, [3, 2]),
]


def test_arithmetic_basics():
    v = module_spec(3, [2])
    x1 = Polynomial.variable(v, 1, 1)
    x2 = Polynomial.variable(v, 2, 1)
    assert (x1 + x1 + x1).is_zero()
    assert x1 * x2 == x2 * x1
    assert (x1 - x1).is_zero()
    assert (x1 * (x1 + x2)) == x1 * x1 + x1 * x2


def test_sigma_is_a_ring_homomorphism():
    rng = random.Random(30)
    for _ in range(60):
        v = rng.choice(SPECS)
        f, g = random_poly(rng, v), random_poly(rng, v)
        assert apply_sigma(f * g) == apply_sigma(f) * apply_sigma(g)
        assert apply_sigma(f + g) == apply_sigma(f) + apply_sigma(g)


def _wide_poly(rng, vspec, top):
    """Up to 4 terms, each a random coefficient times at most 3 powers of
    random variables, with exponents from 0..top and around p and p^2."""
    p = vspec.p
    special = [1, p - 1, p, p + 1, p * p - 1, p * p, p * p + p + 1]
    terms = {}
    for _ in range(rng.randrange(5)):
        mon = [0] * vspec.dim
        for _ in range(rng.randrange(4)):
            e = rng.choice([rng.randrange(top + 1)] + [x for x in special if x <= top])
            mon[rng.randrange(vspec.dim)] = e
        terms[tuple(mon)] = rng.randrange(1, p)
    return Polynomial(vspec, terms)


def test_sigma_matches_term_oracle():
    # the vectorized substitution against sigma multiplied out term by
    # term; at p <= 7 exponents reach 2p^2 + p, so C(e, k) mod p is a
    # product over three or more base-p digits (Lucas)
    rng = random.Random(39)
    for p in (2, 3, 5, 7, 32749):
        top = 2 * p * p + p if p <= 7 else 40
        for _ in range(15):
            blocks = [rng.randint(1, min(p, 4)) for _ in range(rng.randint(1, 3))]
            v = module_spec(p, blocks)
            polys = [Polynomial.zero(v), Polynomial.constant(v, rng.randrange(1, p))]
            polys += [_wide_poly(rng, v, top) for _ in range(3)]
            for f in polys:
                assert apply_sigma(f) == apply_sigma_by_terms(f), (p, blocks, f)
            # all at once, one source id per polynomial
            rows = [(t, mon, c) for t, f in enumerate(polys) for mon, c in f.terms.items()]
            exps, coefs, src = sigma_terms(
                v,
                np.array([mon for _, mon, _ in rows], dtype=np.int64).reshape(-1, v.dim),
                np.array([c for *_, c in rows], dtype=np.int64),
                np.array([t for t, *_ in rows], dtype=np.int64),
            )
            for t, f in enumerate(polys):
                got = {tuple(m): int(c) for m, c in zip(exps[src == t].tolist(), coefs[src == t])}
                assert got == apply_sigma_by_terms(f).terms, (p, blocks, f)


def test_sigma_terms_merges_on_several_packed_keys():
    # src tags up to 2^63 - 1 (about 2^60 apart) leave an int64 key no room
    # for an exponent column, and x_i^top for every variable (top = 300,
    # dim V = 8) needs more than one key for the exponents alone: the merge
    # on those keys still gives sigma of each tagged polynomial, as
    # multiplied out term by term
    rng = random.Random(62)
    cases = [(p, [2, 2], 2 * p) for p in (2, 3, 5, 7)] + [(3, [3, 3, 2], 300), (5, [4, 4], 300)]
    for p, blocks, top in cases:
        v = module_spec(p, blocks)
        powers = Polynomial(v, {tuple(top * (k == i) for k in range(v.dim)): 1 for i in range(v.dim)})
        polys = [_wide_poly(rng, v, top) for _ in range(5)] + [powers, random_poly(rng, v)]
        tags = [0, 2**60, 2**63 - 1] + [rng.getrandbits(62) for _ in polys[3:]]
        rows = [(t, mon, c) for t, f in zip(tags, polys) for mon, c in f.terms.items()]
        exps = np.array([mon for _, mon, _ in rows], dtype=np.int64).reshape(-1, v.dim)
        src = np.array([t for t, *_ in rows], dtype=np.int64)
        keys = _packed_keys(np.column_stack([src, exps]))
        assert len(keys) >= (3 if top == 300 else 2) and keys.dtype == np.int64
        out, coefs, out_src = sigma_terms(v, exps, np.array([c for *_, c in rows]), src)
        for t, f in zip(tags, polys):
            got = {tuple(m): int(c) for m, c in zip(out[out_src == t].tolist(), coefs[out_src == t])}
            assert got == apply_sigma_by_terms(f).terms, (p, blocks, f)


def test_sigma_has_order_p():
    rng = random.Random(31)
    for _ in range(40):
        v = rng.choice(SPECS)
        f = random_poly(rng, v)
        g = f
        for _ in range(v.p):
            g = apply_sigma(g)
        assert g == f


def test_delta_power_p_vanishes():
    rng = random.Random(32)
    for _ in range(40):
        v = rng.choice(SPECS)
        f = random_poly(rng, v)
        assert delta_power(f, v.p).is_zero()


def test_transfer_equals_orbit_sum():
    rng = random.Random(33)
    for _ in range(40):
        v = rng.choice(SPECS)
        f = random_poly(rng, v)
        assert transfer(f) == orbit_sum(f)


def test_transfer_output_is_invariant():
    rng = random.Random(34)
    for _ in range(30):
        v = rng.choice(SPECS)
        assert delta(transfer(random_poly(rng, v))).is_zero()


def test_weight_definition():
    v = module_spec(3, [3])
    x1 = Polynomial.variable(v, 1, 1)
    x3 = Polynomial.variable(v, 3, 1)
    assert weight(x3) == 1
    assert weight(x1) == 3
    with pytest.raises(ValueError):
        weight(Polynomial.zero(v))


def test_delta_is_a_twisted_derivation_over_invariants():
    # Delta(q*f) = q*Delta(f) when q is invariant
    rng = random.Random(35)
    for _ in range(40):
        v = rng.choice(SPECS)
        q = transfer(random_poly(rng, v))  # invariant (possibly zero)
        f = random_poly(rng, v)
        assert delta(q * f) == q * delta(f)


def test_norm_is_invariant_degree_p_monic():
    for v in SPECS:
        for j in range(1, v.num_blocks + 1):
            nj = norm(v, j)
            assert delta(nj).is_zero()
            assert nj.total_degree() == v.p
            lead = [0] * v.dim
            lead[var_index(v, 1, j)] = v.p
            assert nj.terms.get(tuple(lead)) == 1


def test_divide_by_norm_reconstructs():
    rng = random.Random(36)
    for _ in range(40):
        v = rng.choice(SPECS)
        j = rng.randrange(1, v.num_blocks + 1)
        f = random_poly(rng, v, max_deg=v.p + 2)
        q, r = divide_by_norm(f, j)
        assert q * norm(v, j) + r == f
        xidx = var_index(v, 1, j)
        assert all(m[xidx] < v.p for m in r.terms)


def test_compositions_match_the_recursive_listing():
    # the bar-position listing, reversed, is the recursive one term for term;
    # no parts and a negative total are the edge cases
    for parts in range(7):
        for total in range(-2, 11):
            assert list(_compositions(total, parts)) == list(compositions(total, parts)), (total, parts)


def test_graded_basis_counts():
    for v in SPECS:
        for d in range(4):
            want = math.comb(d + v.dim - 1, v.dim - 1)
            assert len(graded_basis(v, d)) == want


def test_invariant_basis_is_invariant():
    for v in SPECS[:4]:
        for d in range(4):
            for f in invariant_basis(v, d):
                assert delta(f).is_zero()


def test_delta_power_preimage_round_trip():
    rng = random.Random(37)
    for _ in range(30):
        v = rng.choice(SPECS[:4])
        f = random_poly(rng, v, max_deg=2)
        k = rng.randrange(1, v.p)
        g = delta_power(f, k)
        if g.is_zero():
            continue
        for comp in homogeneous_components(g).values():
            pre = delta_power_preimage(comp, k)
            assert pre is not None
            assert delta_power(pre, k) == comp


def test_delta_power_preimage_is_none_exactly_off_the_image():
    # oracle: g is in the image of Delta^k exactly when appending g to the
    # images Delta^k(m) of the monomials m of its degrees keeps the rank
    rng = random.Random(38)
    seen = set()
    for trial in range(80):
        v = rng.choice(SPECS)
        k = rng.randrange(v.p + 1)
        g = random_poly(rng, v, max_deg=3)  # usually not homogeneous
        if trial % 2:
            g = delta_power(g, k)
        mons = [m for d in homogeneous_components(g) for m in graded_basis(v, d)]
        index = {m: i for i, m in enumerate(mons)}

        def row(f):
            out = [0] * len(mons)
            for m, c in f.terms.items():
                out[index[m]] = c
            return out

        images = [row(delta_power(Polynomial.from_monomial(v, m), k)) for m in mons]
        rank = rref(FpMatrix.from_rows(v.field, images))[2]
        with_g = rref(FpMatrix.from_rows(v.field, images + [row(g)]))[2]
        pre = delta_power_preimage(g, k)
        seen.add(pre is None)
        assert (pre is None) == (with_g > rank)
        if pre is not None:
            assert delta_power(pre, k) == g
    assert seen == {True, False}
    with pytest.raises(ValueError):
        delta_power_preimage(g, -1)


def test_block_structure_dimensions():
    for v in SPECS[:4]:
        for d in range(4):
            counts = graded_piece_block_structure(v, d)
            assert sum(k * c for k, c in counts.items()) == len(graded_basis(v, d))
            assert all(1 <= k <= v.p for k in counts)
            # number of blocks = dimension of the invariants of the piece
            assert sum(counts.values()) == len(invariant_basis(v, d))
