import hashlib
import io
import random

import pytest

import dump_structure
from modcov import generators, poly
from modcov.covariants import (
    ChainError,
    Covariant,
    decompose_by_norm,
    decompose_transfer_covariant,
    from_weight_poly,
    make_transfer_covariant,
    transfer_witness,
    zero_covariant,
)
from modcov.modules import module_spec
from modcov.poly import (
    Polynomial,
    apply_sigma,
    delta,
    delta_power,
    divide_by_norm,
    graded_basis,
    invariant_basis,
    norm,
    transfer,
    var_index,
    weight,
)
from oracle import covariant_basis, homogeneous_components, is_equivariant, random_poly

V3 = module_spec(3, [3])
V2 = module_spec(3, [2])
W2 = module_spec(3, [2])
W3 = module_spec(3, [3])


def random_weight_poly(rng, vspec, n, max_deg=4):
    """A random polynomial of weight <= n (as Delta^(p-n) of something)."""
    return delta_power(random_poly(rng, vspec, max_deg), vspec.p - n)


def test_chain_validation():
    x1 = Polynomial.variable(V3, 1, 1)
    h = from_weight_poly(x1, W3)
    assert h.components[1] == delta(x1)
    with pytest.raises(ChainError):
        Covariant(V3, W3, [x1, x1, x1])


def test_constructor_zero_pads_and_names_the_broken_link():
    x1 = Polynomial.variable(V3, 1, 1)  # weight 3
    q = norm(V3, 1)
    assert Covariant(V3, W2, [q]) == from_weight_poly(q, W2)
    with pytest.raises(ChainError, match=r"component 2 is not Delta\^1"):
        Covariant(V3, W3, [x1])
    with pytest.raises(ChainError, match=r"Delta\^2 of component 1 is nonzero"):
        Covariant(V3, W2, [x1, delta(x1)])
    with pytest.raises(ValueError, match="more components"):
        Covariant(V3, W2, [q, q - q, q - q])


def test_constructor_derives_the_chain_once(monkeypatch):
    # n - 1 Deltas check components 2..n and one more checks Delta^n = 0:
    # n applications of sigma in all, not 2n - 1
    x1 = Polynomial.variable(V3, 1, 1)  # weight 3
    comps = [x1, delta(x1), delta_power(x1, 2)]
    calls = []
    monkeypatch.setattr(poly, "apply_sigma", lambda f: calls.append(f) or apply_sigma(f))
    Covariant(V3, W3, comps)
    assert len(calls) == 3


def test_weight_poly_round_trips():
    rng = random.Random(50)
    for _ in range(30):
        f = random_weight_poly(rng, V3, 2)
        if f.is_zero():
            continue
        h = from_weight_poly(f, W2)
        assert h.f1 == f
        assert h.support() == weight(f)


def test_from_weight_poly_rejects_heavy_input():
    x1 = Polynomial.variable(V3, 1, 1)  # weight 3
    with pytest.raises(ValueError):
        from_weight_poly(x1, W2)


def test_invariant_times_fixed_vector():
    q = norm(V3, 1)
    h = from_weight_poly(q, W2)
    assert h.components[0] == q
    assert h.components[1].is_zero()
    assert is_equivariant(h)


def test_covariants_are_equivariant():
    rng = random.Random(51)
    for _ in range(40):
        vspec, n = rng.choice([(V3, 2), (V3, 3), (V2, 2), (V2, 1)])
        w = module_spec(3, [n])
        f = random_weight_poly(rng, vspec, n)
        h = from_weight_poly(f, w)
        assert is_equivariant(h)


def test_covariant_basis_trivial_w():
    w1 = module_spec(3, [1])
    for d in range(4):
        basis = covariant_basis(V3, w1, d)
        assert len(basis) == len(invariant_basis(V3, d))
        for h in basis:
            assert delta(h.components[0]).is_zero()


def test_covariant_basis_degree_zero():
    basis = covariant_basis(V3, W2, 0)
    assert len(basis) == 1
    assert basis[0].components[0] == Polynomial.constant(V3, 1)
    assert basis[0].components[1].is_zero()


def test_covariant_basis_members_are_valid():
    rng = random.Random(52)
    for d in range(1, 4):
        for h in covariant_basis(V3, W2, d):
            h.validate_chain()
            assert is_equivariant(h)


def test_make_transfer_covariant():
    f = Polynomial.variable(V2, 1, 1) * Polynomial.variable(V2, 1, 1)
    h = make_transfer_covariant(f, W2, 2)
    assert h.components[0] == delta(f)
    assert h.components[1] == delta_power(f, 2)
    assert is_equivariant(h)
    # support 1 is the plain transfer
    h1 = make_transfer_covariant(f, W2, 1)
    assert h1.components[0] == transfer(f)
    with pytest.raises(ValueError):
        make_transfer_covariant(f, W2, 3)


def test_transfer_witness_round_trip():
    rng = random.Random(53)
    found = 0
    for _ in range(40):
        f = random_poly(rng, V3)
        s = rng.randrange(1, 3)
        h = make_transfer_covariant(f, W2, s)
        if h.support() != s:
            # the top of the chain vanished; h need not be a transfer
            # covariant for its smaller support
            continue
        u = transfer_witness(h)
        assert u is not None
        assert make_transfer_covariant(u, W2, h.support()) == h
        found += 1
    assert found > 10


def test_decompose_by_norm_reconstructs():
    rng = random.Random(54)
    done = 0
    while done < 30:
        f = random_weight_poly(rng, V3, 3, max_deg=4)
        if f.is_zero() or not f.is_homogeneous():
            f = next(iter(homogeneous_components(f).values())) if not f.is_zero() else f
        if f.is_zero():
            continue
        h = from_weight_poly(f, W3)
        md = h.multidegree()
        if md[0] <= V3.p - 3:  # hypothesis d_1 > p - n_1 = 0
            continue
        h1, h2, u = decompose_by_norm(h, 1)
        assert h1.scale_by_invariant(norm(V3, 1)) + h2 == h
        if not h2.is_zero():
            assert make_transfer_covariant(u, W3, h2.support()) == h2
        done += 1


def test_decompose_by_norm_multiple_of_norm():
    f = norm(V3, 1) * Polynomial.variable(V3, 3, 1)
    h = from_weight_poly(f, W2)
    h1, h2, u = decompose_by_norm(h, 1)
    assert h1.scale_by_invariant(norm(V3, 1)) + h2 == h


@pytest.mark.parametrize(
    "p, blocks, md, n", [(3, (3,), (4,), 3), (5, (3, 2), (4, 3), 3), (5, (4,), (6,), 3)]
)
def test_decompose_by_norm_is_division_by_norm(p, blocks, md, n):
    v, w = module_spec(p, blocks), module_spec(p, [n])
    rng = random.Random(56)
    mons = graded_basis(v, multidegree=md)
    x11 = var_index(v, 1, 1)
    done = 0
    while done < 2:
        f = delta_power(Polynomial(v, {m: rng.randrange(p) for m in mons}), p - n)
        if f.is_zero():
            continue
        h = from_weight_poly(f, w)
        h1, h2, _ = decompose_by_norm(h, 1)
        for c, c1, c2 in zip(h.components, h1.components, h2.components):
            assert divide_by_norm(c, 1) == (c1, c2)
            assert all(m[x11] < p for m in c2.terms)
        done += 1


def test_decompose_by_norm_hypothesis_violation():
    f = Polynomial.variable(V2, 2, 1)  # multidegree (1), p - n = 1
    h = from_weight_poly(f, W2)
    with pytest.raises(ValueError):
        decompose_by_norm(h, 1)


@pytest.mark.parametrize("j", [0, 2])
def test_decompose_by_norm_rejects_block_index(j):
    h = from_weight_poly(norm(V2, 1), W2)  # multidegree (3) > p - n = 1
    with pytest.raises(ValueError, match="block index"):
        decompose_by_norm(h, j)


def test_decompose_transfer_covariant_simple():
    # f = q * g with q invariant: a single-pair decomposition exists
    gens = generators.module_generators(V2)
    g = generators.gamma(V2)
    rng = random.Random(55)
    done = 0
    while done < 10:
        f = random_poly(rng, V2, max_deg=2)
        comps = homogeneous_components(f)
        if not comps:
            continue
        f = comps[max(comps)]
        q = Polynomial.variable(V2, 2, 1, e=max(0, g + 1 - f.total_degree()) + 1)
        witness = q * f
        s = rng.randrange(1, 3)
        h = make_transfer_covariant(witness, W2, s)
        if h.support() != s:
            continue
        pairs = decompose_transfer_covariant(h, gens, witness=witness, gamma=g)
        recon = zero_covariant(V2, W2)
        for qi, ci in pairs:
            assert qi.total_degree() >= 1
            assert ci.total_degree() < h.total_degree()
            recon = recon + ci.scale_by_invariant(qi)
        assert recon == h
        done += 1


def test_decompose_transfer_covariant_degree_guard():
    f = Polynomial.variable(V2, 1, 1)
    h = make_transfer_covariant(f, W2, 1)
    if not h.is_zero():
        with pytest.raises(ValueError):
            decompose_transfer_covariant(h, [Polynomial.constant(V2, 1)], gamma=5)


# sha256 of ``python tests/dump_structure.py``: (h1, h2, u) and the
# transfer pairs of the structure benchmark cases, seeds 1..10
STRUCTURE_SHA256 = "07d64a6da79ce6909fbde2de80bda8b8460902d9c4ba7f655cba454388b0819b"


def test_structure_dump_matches_recorded_hash():
    # a new engine for the transfer case, as in a fresh interpreter
    generators._engine.cache_clear()
    out = io.StringIO()
    dump_structure.write_dump(out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STRUCTURE_SHA256
