"""The tensor-folded chain bases, cross-checked against the symbolic
polynomial operators."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from modcov.chains import (
    PieceChains,
    PieceIndex,
    Terms,
    _block_delta_chains,
    _block_delta_matrix,
    _tensor_templates,
    multiplication_map,
    nilpotent_chains,
)
from modcov.fastlinalg import Echelon, _dtype, kernel_mod, matmul_mod
from modcov.field import FpMatrix, PrimeField, rref
from modcov.modules import module_spec
from modcov.poly import (
    Polynomial,
    _compositions,
    delta,
    delta_power,
    invariant_basis,
)
from oracle import (
    apply_sigma_by_terms,
    block_lengths,
    compositions,
    graded_piece_block_structure,
    nilpotent_chains_every_level,
    piece_chains_by_triples,
)

SPECS = [
    module_spec(2, [2]),
    module_spec(3, [3]),
    module_spec(3, [2, 2]),
    module_spec(5, [4, 3]),
    module_spec(5, [2, 1]),
]


def _unipotent_inverse(u, p):
    """Inverse of a unipotent matrix: sum_i (I - u)^i, a finite series."""
    nil = (np.eye(u.shape[0], dtype=np.int64) - u) % p
    out, term = np.eye(u.shape[0], dtype=np.int64), np.eye(u.shape[0], dtype=np.int64)
    for _ in range(u.shape[0]):
        term = (term @ nil) % p
        out = (out + term) % p
    return out


def _jordan_in_random_basis(rng, sizes, p):
    """Nilpotent matrix with Jordan blocks of the given sizes, conjugated by
    P = L U with L, U random unipotent (lower, upper) triangular."""
    n = sum(sizes)
    jordan = np.zeros((n, n), dtype=np.int64)
    off = 0
    for s in sizes:
        for i in range(s - 1):
            jordan[off + i, off + i + 1] = 1
        off += s
    rand = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
    upper = np.triu(rand, 1) + np.eye(n, dtype=np.int64)
    lower = upper.T.copy()
    conj = (lower @ upper) % p
    conj_inv = (_unipotent_inverse(upper, p) @ _unipotent_inverse(lower, p)) % p
    assert ((conj @ conj_inv) % p == np.eye(n, dtype=np.int64)).all()
    return (conj @ jordan @ conj_inv) % p


def test_nilpotent_chains_structure():
    rng = random.Random(60)
    p = 5
    # random nilpotent: strictly upper triangular (mostly one long chain)
    cases = []
    for _ in range(10):
        n = rng.randrange(1, 7)
        m = np.triu(
            np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)]), 1
        )
        cases.append((m, None))
    # several chain lengths, some repeated, in a random basis
    for sizes in [(3, 2, 2, 1), (4, 1, 1), (2, 2, 2), (5, 3, 3, 1, 1), (6, 2)]:
        cases.append((_jordan_in_random_basis(rng, sizes, p), sorted(sizes)))
    for m, sizes in cases:
        n = m.shape[0]
        chains = nilpotent_chains(m, p)
        assert sum(c.shape[0] for c in chains) == n
        if sizes is not None:
            assert sorted(c.shape[0] for c in chains) == sizes
        for ch in chains:
            # bottom maps to zero, each level maps down one
            assert not matmul_mod(ch[0:1], m.T, p).any()
            for k in range(1, ch.shape[0]):
                assert (matmul_mod(ch[k : k + 1], m.T, p) == ch[k - 1 : k]).all()
        # the chain vectors together are a basis
        stacked = [[int(x) for x in row] for ch in chains for row in ch]
        _, _, rank = rref(FpMatrix.from_rows(PrimeField(p), stacked))
        assert rank == n


def test_nilpotent_chains_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        nilpotent_chains(np.eye(3, dtype=np.int64), 3)
    rng = random.Random(20)
    swap = np.array([[0, 1], [1, 0]])  # a permutation: N^2 = I
    idem = np.array([[0, 1], [0, 1]])  # N^k = N for every k
    for m in (swap, idem, _jordan_in_random_basis(rng, (3, 2), 5) + np.eye(5, dtype=np.int64)):
        with pytest.raises(ValueError):
            nilpotent_chains(m, 5)


def _green_ring(p, a, b):
    """Jordan type of V_a (x) V_b over Z/p (Renaud 1979), as sorted block sizes."""
    a, b = min(a, b), max(a, b)
    if a + b <= p:
        return sorted(b - a + 2 * i - 1 for i in range(1, a + 1))
    return sorted([p] * (a + b - p) + [b - a + 2 * i - 1 for i in range(1, p - b + 1)])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_tensor_templates_match_green_ring(p):
    # an independent source for the elimination: no rank is computed here
    for a in range(1, p + 1):
        for b in range(1, p + 1):
            lengths = sorted(ch.shape[0] for ch in _tensor_templates(p, a, b))
            assert lengths == _green_ring(p, a, b), (a, b)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_piece_block_lengths_match_green_ring(p):
    # the per-block Jordan types folded through V_a (x) V_b by the rule
    # above, not by _tensor_templates, give the Jordan type of the piece
    sizes = sorted({1, 2, 3, p} & set(range(1, p + 1)))
    for m in (1, 2, 3):
        for blocks in itertools.combinations_with_replacement(sizes, m):
            v = module_spec(p, list(blocks))
            for d in range(6):
                for md in _compositions(d, m):
                    dims = [math.comb(k + n - 1, n - 1) for n, k in zip(blocks, md)]
                    if math.prod(dims) > 200:
                        continue
                    folded = [1]
                    for n, k in zip(blocks, md):
                        block = [c.shape[0] for c in _block_delta_chains(p, n, k)]
                        folded = [c for a in folded for b in block for c in _green_ring(p, a, b)]
                    pc = PieceChains(v, md)
                    assert sorted(folded, reverse=True) == block_lengths(pc)
                    for k in range(1, p + 1):
                        assert pc.dim_weight_le(k) == sum(min(k, a) for a in folded)


def test_piece_index_round_trip():
    rng = random.Random(61)
    for v in SPECS:
        for md in _compositions(3, v.num_blocks):
            idx = PieceIndex(v, md)
            exps = idx.exps
            assert exps.shape == (idx.size, v.dim)
            assert (idx.rank(exps) == np.arange(idx.size)).all()
            vec = np.array([rng.randrange(v.p) for _ in range(idx.size)])
            assert (idx.poly_to_vector(idx.vector_to_poly(vec)) == vec).all()


def test_piece_index_lists_monomials_in_kronecker_order():
    """A piece lists its monomials block-major, block 1 slowest, and each
    block's monomials with its last variable most significant: the
    Kronecker order of its single-block pieces.  Checked against the
    recursive compositions on every single-block piece with d <= 2p,
    n <= 6 and size <= 2,000, and on multi-block pieces."""
    cases = [
        (module_spec(p, [n]), (d,))
        for p in (2, 3, 5, 7)
        for n in range(1, min(p, 6) + 1)
        for d in range(2 * p + 1)
        if math.comb(n + d - 1, d) <= 2000
    ]
    assert len(cases) == 168
    for p, blocks in [(3, [3, 2]), (5, [4, 3]), (7, [6, 1])]:
        cases += [(module_spec(p, blocks), (d1, d2)) for d1 in range(p + 1) for d2 in range(p + 1)]
    cases += [(module_spec(5, [4, 3]), (3, 2)), (module_spec(3, [3, 2, 2]), (2, 1, 1))]
    for v, md in cases:
        blocks = [sorted(compositions(d, n), key=lambda e: e[::-1]) for n, d in zip(v.blocks, md)]
        for n, d, mons in zip(v.blocks, md, blocks):
            assert [tuple(e) for e in PieceIndex(module_spec(v.p, [n]), (d,)).exps.tolist()] == mons
        kron = [sum(parts, ()) for parts in itertools.product(*blocks)]
        index = PieceIndex(v, md)
        assert index.exps.dtype == np.int64 and index.size == len(kron) == len(set(kron))
        assert [tuple(e) for e in index.exps.tolist()] == kron, (v, md)


def test_piece_index_refuses_a_digit_space_over_2_62():
    # 2^64 monomials: only a check made before listing them returns at once
    with pytest.raises(OverflowError):
        PieceIndex(module_spec(2, [2] * 64), (1,) * 64)


def test_chain_vectors_satisfy_delta_chain():
    for v in SPECS[:4]:
        for d in range(4):
            for md in _compositions(d, v.num_blocks):
                pc = PieceChains(v, md)
                polys = [pc.index.vector_to_poly(row) for row in pc.rows]
                for i, f in enumerate(polys):
                    if pc.level[i] == 0:
                        assert delta(f).is_zero()
                    else:
                        assert delta(f) == polys[i - 1]
                        assert pc.level[i - 1] == pc.level[i] - 1
                        assert pc.above[i - 1] == pc.above[i] + 1


def test_invariant_matrix_matches_invariant_basis_dim():
    for v in SPECS[:4]:
        for d in range(5):
            total = 0
            for md in _compositions(d, v.num_blocks):
                pc = PieceChains(v, md)
                inv = pc.weight_le_matrix(1)
                total += inv.shape[0]
                for row in inv:
                    assert delta(pc.index.vector_to_poly(row)).is_zero()
            assert total == len(invariant_basis(v, d))


def test_block_lengths_match_symbolic_decomposition():
    for v in SPECS[:3]:
        for d in range(4):
            counts = Counter()
            for md in _compositions(d, v.num_blocks):
                counts.update(block_lengths(PieceChains(v, md)))
            assert counts == graded_piece_block_structure(v, d)


def test_weight_le_matrix():
    v = module_spec(3, [3])
    pc = PieceChains(v, (2,))
    for k in range(1, 4):
        m = pc.weight_le_matrix(k)
        assert m.shape[0] == pc.dim_weight_le(k)
        for row in m:
            f = pc.index.vector_to_poly(row)
            assert delta_power(f, k).is_zero()
    assert pc.dim_weight_le(v.p) == pc.index.size
    # the invariants are kept for every span that reads them: one copy, read-only
    assert pc.weight_le_matrix(1) is pc.weight_le_matrix(1)
    with pytest.raises(ValueError):
        pc.weight_le_matrix(1)[0, 0] = 1


def test_multiplication_map_matches_polynomial_product():
    rng = random.Random(62)
    blocks_checked = set()
    for _ in range(25):
        v = rng.choice(SPECS[:4] + [module_spec(3, [3, 2, 2])])
        dg, ds = rng.randrange(1, 3), rng.randrange(0, 3)
        gmd = rng.choice(list(_compositions(dg, v.num_blocks)))
        smd = rng.choice(list(_compositions(ds, v.num_blocks)))
        tmd = tuple(a + b for a, b in zip(gmd, smd))
        src, tgt = PieceIndex(v, smd), PieceIndex(v, tmd)
        gidx = PieceIndex(v, gmd)
        gvec = np.array([rng.randrange(v.p) for _ in range(gidx.size)])
        g = gidx.vector_to_poly(gvec)
        if g.is_zero():
            continue
        mult = multiplication_map(Terms(g), src, tgt)
        fvec = np.array([rng.randrange(v.p) for _ in range(src.size)])
        f = src.vector_to_poly(fvec)
        got = matmul_mod(mult, fvec[:, None], v.p)[:, 0]
        assert tgt.vector_to_poly(got) == g * f
        blocks_checked.add(v.num_blocks)
    assert blocks_checked == {1, 2, 3}


def test_multiplication_map_refuses_a_target_off_the_multidegree():
    # x_1^4 has degree 4, not 2: its code would land on the column of x_1*x_2
    v = module_spec(3, [2])
    x1_4 = Terms(Polynomial.variable(v, 1, 1, 4))
    with pytest.raises(ValueError):
        multiplication_map(x1_4, PieceIndex(v, (0,)), PieceIndex(v, (2,)))


def test_terms_refuse_a_polynomial_that_is_not_multihomogeneous():
    # x*x + x*y is homogeneous but has multidegrees (2, 0) and (1, 1)
    v = module_spec(3, [2, 2])
    x, y = Polynomial.variable(v, 1, 1), Polynomial.variable(v, 1, 2)
    for f in (x * x + x * y, x + x * x, Polynomial.zero(v)):
        with pytest.raises(ValueError):
            Terms(f)
    f = x * y + Polynomial.variable(v, 2, 1) * y
    t = Terms(f)
    assert (t.multidegree, t.degree) == ((1, 1), 2)
    assert t.exps.tolist() == [list(m) for m in f.terms] and t.exps.dtype == np.uint8
    assert t.coefs.tolist() == list(f.terms.values())


# V's with a trivial block V_1, a free block V_p and three blocks
FOLD_SPECS = [
    module_spec(2, [2, 1, 2]),
    module_spec(3, [3, 1, 2]),
    module_spec(3, [2, 2, 3]),
    module_spec(5, [5, 1]),
    module_spec(5, [5, 1, 2]),
    module_spec(7, [3, 2]),
]


@pytest.mark.parametrize("v", FOLD_SPECS, ids=str)
def test_batched_fold_matches_the_per_triple_fold(v):
    # every piece through degree 2p gets the same chain basis, byte for
    # byte, as folding one (left chain, right chain, template) at a time
    for d in range(2 * v.p + 1):
        for md in _compositions(d, v.num_blocks):
            pc = PieceChains(v, md)
            rows, level, above = piece_chains_by_triples(v, md)
            assert pc.rows.dtype == rows.dtype
            assert np.array_equal(pc.rows, rows)
            assert np.array_equal(pc.level, level)
            assert np.array_equal(pc.above, above)


# every single-block piece Sym^d(V_n) with 1 <= n <= p, d <= 2p and
# dimension <= 60, for p in {2, 3, 5, 7}: 130 pieces
BLOCK_PIECES = [
    (p, n, d)
    for p in (2, 3, 5, 7)
    for n in range(1, p + 1)
    for d in range(2 * p + 1)
    if math.comb(n + d - 1, d) <= 60
]


def _block_delta_reference(p, n, d):
    """Delta on Sym^d(V_n), one monomial at a time through the term-by-term
    oracle sigma (not poly.sigma_terms, which _block_delta_matrix calls)."""
    vspec = module_spec(p, [n])
    piece = PieceIndex(vspec, (d,))
    out = np.zeros((piece.size, piece.size), dtype=np.int64)
    for col, mono in enumerate(piece.exps):
        f = Polynomial.from_monomial(vspec, tuple(int(e) for e in mono))
        for mm, c in (apply_sigma_by_terms(f) - f).terms.items():
            out[piece.rank(np.array(mm))[0], col] = c
    return out


def _jordan_type_from_ranks(m, p):
    """Sorted chain lengths of a nilpotent m: rank N^(k-1) - rank N^k
    chains have length >= k.  Ranks come from the pure-Python rref."""
    field = PrimeField(p)
    ranks = [m.shape[0]]
    power = np.eye(m.shape[0], dtype=np.int64)
    while ranks[-1]:
        power = (power @ m) % p
        ranks.append(rref(FpMatrix.from_rows(field, power.tolist()))[2])
    at_least = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))] + [0]
    return sorted(
        k for k in range(1, len(at_least)) for _ in range(at_least[k - 1] - at_least[k])
    )


def test_block_delta_matrix_matches_reference():
    assert len(BLOCK_PIECES) == 130
    for p, n, d in BLOCK_PIECES:
        got = _block_delta_matrix(p, n, d)
        assert got.dtype == _dtype(p)
        assert (got == _block_delta_reference(p, n, d)).all(), (p, n, d)


def test_block_chain_lengths_match_delta_ranks():
    for p, n, d in BLOCK_PIECES:
        chains = _block_delta_chains(p, n, d)
        expected = _jordan_type_from_ranks(_block_delta_reference(p, n, d), p)
        assert sorted(c.shape[0] for c in chains) == expected, (p, n, d)


def _chains_by_kernel_levels(n_mat, p):
    """Reference chain selection: at level k, the tops are the vectors of
    ker N^k independent of ker N^(k-1) and of the level-k vectors of the
    longer chains, inserted into a fresh echelon per level."""
    n_mat = np.asarray(n_mat, dtype=np.int64) % p
    dim = n_mat.shape[0]
    powers = [np.eye(dim, dtype=np.int64)]
    while powers[-1].any():
        powers.append(matmul_mod(powers[-1], n_mat, p).astype(np.int64))
    kernels = [np.zeros((0, dim), dtype=np.int64)]
    kernels += [kernel_mod(powers[k], p) for k in range(1, len(powers))]
    chains = []
    for k in range(len(powers) - 1, 0, -1):
        ech = Echelon(p, dim)
        ech.add_rows(np.concatenate([kernels[k - 1]] + [ch[k - 1 : k] for ch in chains]))
        new = ech.add_rows(kernels[k])
        if not new:
            continue
        levels = [kernels[k][new].astype(np.int64)]
        for _ in range(k - 1):
            levels.append(matmul_mod(levels[-1], n_mat.T, p).astype(np.int64))
        chains.extend(np.stack(levels[::-1], axis=1))
    return chains


def _chain_sets(chains):
    """Per chain length, the sorted chains as byte strings (order-free)."""
    out = {}
    for ch in chains:
        out.setdefault(ch.shape[0], []).append(np.asarray(ch, dtype=np.int64).tobytes())
    return {k: sorted(v) for k, v in out.items()}


def test_nilpotent_chains_pick_the_reference_tops_per_level():
    rng = random.Random(60)
    cases = [(_block_delta_reference(p, n, d), p) for p, n, d in BLOCK_PIECES]
    for p in (2, 3, 5, 7):
        for sizes in [(3, 2, 2, 1), (4, 1, 1), (2, 2, 2), (5, 3, 3, 1, 1), (6, 2)]:
            cases.append((_jordan_in_random_basis(rng, sizes, p), p))
    for m, p in cases:
        got = _chain_sets(nilpotent_chains(m, p))
        assert got == _chain_sets(_chains_by_kernel_levels(m, p))


# every single-block piece Sym^d(V_n) on the dense route, d <= p - n, with
# p <= 13 and dimension <= 400
DENSE_PIECES = [
    (p, n, d)
    for p in (2, 3, 5, 7, 11, 13)
    for n in range(1, p + 1)
    for d in range(p - n + 1)
    if math.comb(n + d - 1, d) <= 400
]


def test_nilpotent_chains_skip_only_levels_where_no_chain_starts():
    # the chains from the ranks of all powers, visiting only the levels
    # where a chain starts, equal byte for byte and in order those of the
    # oracle visiting every level: on the dense block pieces, on Delta of
    # every V_a (x) V_b (sigma (x) sigma - 1, built here with np.kron) for
    # p <= 7, and on random conjugates of given Jordan types
    assert len(DENSE_PIECES) == 202
    cases = [(_block_delta_matrix(p, n, d), p) for p, n, d in DENSE_PIECES]
    rng = random.Random(20)
    for p in (2, 3, 5, 7):
        for a in range(1, p + 1):
            for b in range(1, p + 1):
                sig = [np.eye(k, dtype=np.int64) + np.eye(k, k=1, dtype=np.int64) for k in (a, b)]
                dmat = np.kron(*sig) - np.eye(a * b, dtype=np.int64)
                want = nilpotent_chains_every_level(dmat, p)
                assert _same_chains(_tensor_templates(p, a, b), want), (p, a, b)
                cases.append((dmat, p))
        types = [(p,), (p, p), tuple(range(1, p + 1)), (1,) * 5, (p, 1, p - 1 or 1, 1)]
        cases += [(_jordan_in_random_basis(rng, t, p), p) for t in types]
        cases += [(np.zeros((4, 4), dtype=np.int64), p), (np.zeros((0, 0), dtype=np.int64), p)]
    for m, p in cases:
        assert _same_chains(nilpotent_chains(m, p), nilpotent_chains_every_level(m, p)), (m, p)


def _same_chains(got, want):
    """Same chains in the same order, byte for byte (dtype and shape too)."""
    return len(got) == len(want) and all(
        (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()) for g, w in zip(got, want)
    )


# every single-block piece Sym^d(V_n) past degree p - n with p <= 7 and
# dimension <= 400: the pieces whose chains come from the norm splitting
NORM_PIECES = [
    (p, n, d)
    for p in (2, 3, 5, 7)
    for n in range(1, p + 1)
    for d in range(p - n + 1, 6 * p)
    if math.comb(n + d - 1, d) <= 400
]


def test_norm_chains_match_the_dense_route():
    assert len(NORM_PIECES) == 275
    for p, n, d in NORM_PIECES:
        delta = _block_delta_matrix(p, n, d)
        chains = _block_delta_chains(p, n, d)
        dense = nilpotent_chains(delta, p)
        assert sorted(c.shape[0] for c in chains) == sorted(c.shape[0] for c in dense), (p, n, d)
        for ch in chains:
            assert ch.dtype == _dtype(p)
            images = matmul_mod(ch, delta.T, p)
            assert not images[0].any() and (images[1:] == ch[:-1]).all(), (p, n, d)
        ech = Echelon(p, delta.shape[0])
        ech.add_rows(np.concatenate(chains))
        assert ech.rank == delta.shape[0], (p, n, d)


def test_block_jordan_types_follow_the_norm_periodicity():
    """Past degree p - n, Sym^d(V_n) is N * Sym^(d-p)(V_n) plus a free
    module: its Jordan type is that of Sym^(d-p) plus chains of length p
    (all of them for d < p).  Checked on the ranks of the term-by-term
    Delta, independent of both chain routes."""
    checked = 0
    for p, n, d in BLOCK_PIECES:
        if d <= p - n:
            continue
        dim, low_dim = math.comb(n + d - 1, d), math.comb(n + d - p - 1, d - p) if d >= p else 0
        assert (dim - low_dim) % p == 0
        low = _jordan_type_from_ranks(_block_delta_reference(p, n, d - p), p) if d >= p else []
        expected = sorted(low + [p] * ((dim - low_dim) // p))
        assert _jordan_type_from_ranks(_block_delta_reference(p, n, d), p) == expected, (p, n, d)
        assert sorted(c.shape[0] for c in _block_delta_chains(p, n, d)) == expected
        checked += 1
    assert checked == 78
