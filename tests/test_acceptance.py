"""End-to-end acceptance: one test per criterion, exact equality throughout.

1. covariant beta sweep (p in {2,3,5}, reduced V with <= 2 blocks,
   block sizes in [2, min(4, p)], W = V_n for n in [1, p])
2. invariant-ring betas for the named small cases
3. certified caps and coinvariant top-degree bounds on the swept cases
4. randomized operator identities (>= 1000 cases per suite, p in {2,3,5,7})
5. randomized norm decomposition h = N_j h1 + h2 (>= 200 cases, p = 3)
6. indecomposability of the degree-p transfer invariant and its covariant
7. randomized transfer-covariant decomposition (>= 100 cases, p = 3, V_2)
8. parser round-trip (>= 1000 random polynomials)
"""

import itertools
import random
from functools import lru_cache

import pytest

from modcov import formulas, generators
from modcov.covariants import (
    Covariant,
    decompose_by_norm,
    decompose_transfer_covariant,
    from_weight_poly,
    make_transfer_covariant,
)
from modcov.modules import module_spec
from modcov.parsing import format_polynomial, parse_polynomial
from modcov.poly import (
    Polynomial,
    apply_sigma,
    delta,
    delta_power,
    divide_by_norm,
    invariant_basis,
    norm,
    transfer,
    var_index,
)
from oracle import (
    covariant_basis,
    is_decomposable_covariant,
    is_decomposable_invariant,
    is_equivariant,
    random_poly,
)

PRIMES = (2, 3, 5)


def _sweep_vspecs():
    for p in PRIMES:
        sizes = range(2, min(4, p) + 1)
        for nblocks in (1, 2):
            for blocks in itertools.combinations_with_replacement(sizes, nblocks):
                yield p, tuple(sorted(blocks, reverse=True))


@pytest.fixture(scope="session")
def sweep():
    """Computed vs formula betas over the full sweep, plus gamma per V.

    W iterates innermost so each V's cached chain bases are reused for all
    of its W cases.
    """
    records = []
    gammas = {}
    for p, blocks in _sweep_vspecs():
        v = module_spec(p, blocks)
        for n in range(1, p + 1):
            w = module_spec(p, [n])
            rep = generators.covariant_beta(v, w)
            value, label = formulas.beta_covariants_formula(v, w)
            records.append(
                {
                    "p": p,
                    "blocks": blocks,
                    "n": n,
                    "report": rep,
                    "formula": value,
                    "label": label,
                }
            )
        gammas[(p, blocks)] = generators.gamma(v)
    return records, gammas


@pytest.mark.slow
def test_criterion_1_covariant_beta_sweep(sweep):
    records, _ = sweep
    assert len(records) == 64
    for r in records:
        assert r["report"].certified
        assert r["report"].beta == r["formula"], (
            f"p={r['p']} V={r['blocks']} n={r['n']}: computed "
            f"{r['report'].beta} != formula {r['formula']} ({r['label']})"
        )
    # the exception rows are genuinely exercised
    assert any(r["label"] == "V2-exception" for r in records)
    assert any(r["label"] == "W-trivial" for r in records)


def test_criterion_2_invariant_betas():
    cases = [
        # (p, blocks, beta, exact generator degree multiset or None)
        (2, (2,), 2, [1, 2]),
        (3, (2,), 3, [1, 3]),
        (5, (2,), 5, [1, 5]),
        (3, (3,), 3, [1, 2, 3, 3]),
        (5, (3,), 5, [1, 2, 5, 5]),
        (2, (2, 2), 2, [1, 1, 2, 2, 2]),
        # 2V_2 at odd p is the hypersurface k[x_{2,1}, x_{2,2}, u, N_1, N_2]:
        # the transfers through degree 2(p-1) decompose, e.g.
        # Tr(x_{1,1}^2 x_{1,2}^2) = 2u^2 + 2x_{2,1}^2 x_{2,2}^2 at p = 3
        (3, (2, 2), 3, [1, 1, 2, 3, 3]),
        (5, (2, 2), 5, [1, 1, 2, 5, 5]),
        (5, (4,), 7, None),
        (3, (3, 2), 5, None),
    ]
    for p, blocks, beta, degrees in cases:
        v = module_spec(p, blocks)
        rep = generators.algebra_beta(v)
        assert rep.beta == beta, f"p={p} V={blocks}: beta {rep.beta} != {beta}"
        if degrees is not None:
            assert rep.generator_degrees() == degrees
        value, _ = formulas.beta_invariants_formula(v)
        assert rep.beta == value


@pytest.mark.slow
def test_criterion_3_certified_caps_and_gamma_bounds(sweep):
    records, gammas = sweep
    for r in records:
        rep = r["report"]
        assert rep.cap_used >= rep.beta
        assert all(
            c == 0 for d, c in rep.generator_counts.items() if d > rep.beta
        )
    for (p, blocks), g in gammas.items():
        m = len(blocks)
        assert g <= m * (p - 1) + (p - 2)
        if max(blocks) <= 3:
            assert g <= m * (p - 1) + 1
        if max(blocks) <= 2:
            assert g <= m * (p - 1)


def test_criterion_4_operator_property_suites():
    rng = random.Random(101)
    specs = {
        p: [
            module_spec(p, [2]),
            module_spec(p, [min(3, p), 2]),
            module_spec(p, [2, 1]),
        ]
        for p in (2, 3, 5, 7)
    }

    # (a) transfer = Delta^(p-1) = sum of sigma powers, term for term
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7))
        v = rng.choice(specs[p])
        f = random_poly(rng, v, max_deg=3, max_terms=3)
        sigma_sum = Polynomial.zero(v)
        g = f
        for _ in range(p):
            sigma_sum = sigma_sum + g
            g = apply_sigma(g)
        assert transfer(f) == sigma_sum == delta_power(f, p - 1)

    # (b) sigma^p = id and Delta^p = 0
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7))
        v = rng.choice(specs[p])
        f = random_poly(rng, v, max_deg=3, max_terms=3)
        g = f
        for _ in range(p):
            g = apply_sigma(g)
        assert g == f
        assert delta_power(f, p).is_zero()

    # (c) weight-polynomial covariants are equivariant; basis elements
    # re-validate as Delta-chains
    checked = 0
    basis_specs = [
        (2, [2], 2), (3, [2], 2), (3, [3], 3), (3, [2, 2], 2),
        (5, [3], 3), (5, [4], 4), (7, [2], 2), (7, [3], 3),
    ]
    while checked < 1000:
        p, blocks, n = rng.choice(basis_specs)
        v, w = module_spec(p, blocks), module_spec(p, [n])
        d = rng.randrange(1, 4)
        basis = _cached_basis(p, tuple(blocks), n, d)
        for h in basis:
            h.validate_chain()
            assert is_equivariant(h)
            checked += 1
        if basis:
            f1 = Polynomial.zero(v)
            for h in basis:
                f1 = f1 + h.components[0].scale(rng.randrange(p))
            if not f1.is_zero():
                assert is_equivariant(from_weight_poly(f1, w))
                checked += 1

    # (d) divide_by_norm reconstruction with remainder degree < p
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7))
        v = rng.choice(specs[p])
        f = random_poly(rng, v, max_deg=p + 1, max_terms=3)
        j = rng.randrange(1, v.num_blocks + 1)
        q, r = divide_by_norm(f, j)
        assert q * norm(v, j) + r == f
        top = var_index(v, 1, j)
        assert all(mon[top] < p for mon in r.terms)

    # (e) Delta is k[V]^G-linear: Delta(q f) = q Delta(f)
    for _ in range(1000):
        p = rng.choice((2, 3, 5, 7))
        v = rng.choice(specs[p])
        f = random_poly(rng, v, max_deg=3, max_terms=3)
        basis = _cached_invariants(p, tuple(v.blocks), rng.randrange(1, 3))
        q = Polynomial.zero(v)
        for b in basis:
            q = q + b.scale(rng.randrange(p))
        assert delta(q * f) == q * delta(f)


@lru_cache(maxsize=None)
def _cached_basis(p, blocks, n, d):
    return tuple(covariant_basis(module_spec(p, list(blocks)), module_spec(p, [n]), d))


@lru_cache(maxsize=None)
def _cached_invariants(p, blocks, d):
    return tuple(invariant_basis(module_spec(p, list(blocks)), d))


def test_criterion_5_norm_decomposition():
    rng = random.Random(102)
    p = 3
    vlist = [module_spec(p, [2]), module_spec(p, [3]), module_spec(p, [2, 2])]
    done = 0
    attempts = 0
    while done < 200:
        attempts += 1
        assert attempts < 20000
        v = rng.choice(vlist)
        j = rng.randrange(1, v.num_blocks + 1)
        nj = v.blocks[j - 1]
        n = rng.randrange(1, p + 1)
        w = module_spec(p, [n])
        d = rng.randrange(2, 6)
        basis = _cached_basis(p, tuple(v.blocks), n, d)
        if not basis:
            continue
        f1 = Polynomial.zero(v)
        for h in basis:
            f1 = f1 + h.components[0].scale(rng.randrange(p))
        # keep one multihomogeneous piece satisfying d_j > p - n_j
        pieces = [
            c
            for md, c in f1.multihomogeneous_components().items()
            if md[j - 1] > p - nj
        ]
        if not pieces:
            continue
        h = from_weight_poly(rng.choice(pieces), w)
        if h.is_zero():
            continue
        h1, h2, u = decompose_by_norm(h, j)
        assert h1.scale_by_invariant(norm(v, j)) + h2 == h
        # h2 is the Delta-chain of u ending at Delta^(p-1)(u) at some
        # level s (the top chain entries may vanish, so s is recovered
        # by matching rather than read off the support)
        if not h2.is_zero():
            matches = [
                s
                for s in range(1, n + 1)
                if h2 == make_transfer_covariant(u, w, s)
            ]
            assert matches
            s = matches[0]
            for i, comp in enumerate(h2.components[:s], start=1):
                assert comp == delta_power(u, p - s + i - 1)
        done += 1
    assert done >= 200


def test_criterion_6_degree_p_transfer_is_indecomposable():
    p = 3
    v = module_spec(p, [3])
    f = Polynomial.variable(v, 1, 1, e=p - 1) * Polynomial.variable(v, 2, 1)
    tr = transfer(f)
    assert not tr.is_zero()
    assert not is_decomposable_invariant(tr)
    w = module_spec(p, [2])
    h = Covariant(v, w, [delta_power(f, p - 2), delta_power(f, p - 1)])
    assert not is_decomposable_covariant(h)


def test_criterion_7_transfer_covariant_decomposition():
    rng = random.Random(103)
    p = 3
    v = module_spec(p, [2])
    g = generators.gamma(v)
    assert g == p - 1
    mod_gens = generators.module_generators(v)
    done = 0
    attempts = 0
    while done < 100:
        attempts += 1
        assert attempts < 10000
        n = rng.randrange(1, p + 1)
        w = module_spec(p, [n])
        s = rng.randrange(1, n + 1)
        d = rng.randrange(g + 1, g + 5)
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            a = rng.randrange(d + 1)
            terms[(a, d - a)] = rng.randrange(1, p)
        f = Polynomial(v, terms)
        h = make_transfer_covariant(f, w, s)
        if h.is_zero() or h.support() != s:
            continue
        pairs = decompose_transfer_covariant(h, mod_gens, witness=f, gamma=g)
        recon = None
        for q, c in pairs:
            assert not q.is_zero() and q.total_degree() > 0
            assert c.total_degree() < d
            part = c.scale_by_invariant(q)
            recon = part if recon is None else recon + part
        assert recon == h
        done += 1
    assert done >= 100


def test_criterion_8_parser_round_trip():
    rng = random.Random(104)
    specs = [
        module_spec(2, [2]),
        module_spec(3, [3, 2]),
        module_spec(5, [4, 1]),
        module_spec(7, [2, 2]),
    ]
    for _ in range(1200):
        v = rng.choice(specs)
        f = random_poly(rng, v, max_deg=4, max_terms=5)
        assert parse_polynomial(format_polynomial(f), v) == f
