"""Jordan chain bases for graded pieces of k[V].

The action of G preserves the per-block multidegree, and a multidegree
piece of k[V] is the tensor product of symmetric powers of the duals of
the individual Jordan blocks.  Chains are therefore built structurally:

  * a symmetric power Sym^d of a single block V_n is small; its Delta
    matrix comes from one ``poly.sigma_terms`` call.  Its chains come from
    a dense nilpotent-chain computation up to degree p - n, and past it
    from the norm: N times the chains of Sym^(d-p), plus chains of length
    p on a free complement, from one elimination;
  * the chain type of a tensor product of two chains of lengths a and b
    depends only on (p, a, b), so a chain basis of V_a (x) V_b is computed
    once per shape and instantiated for all pairs of that shape at once.

A piece of multidegree (d_1, ..., d_m) indexes its monomials by one int64
code each (``PieceIndex``): the exponents read as mixed-radix digits, base
d_j + 1 for the variables of block j, block 1 most significant and within
a block the last variable most significant.  In code order the monomials
come block-major, in the Kronecker order of the single-block pieces, so
tensor products of per-block vectors are plain Kronecker products.  No
digit of a monomial of the piece reaches its base, so under the piece's
weights the code of a product landing in the piece is the sum of its
factors' codes: a multiplication map adds codes and looks them up.  A
multiplier comes as ``Terms``, its term arrays built once.

From a chain basis everything the generator computations need is cheap:
invariants are the chain bottoms, polynomials of weight <= k are the
bottom k levels, and the Jordan type is the multiset of chain lengths.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .fastlinalg import Echelon, _dtype, asmod, kernel_mod, matmul_mod, rref_mod
from .modules import ModuleSpec, module_spec
from .poly import Polynomial, _composition_rows, norm, sigma_terms


# -- nilpotent chain decomposition (dense, small) ----------------------


def nilpotent_chains(n_mat, p):
    """Jordan chains of a nilpotent matrix over F_p.

    Returns a list of 2-d arrays; chains[i][k] is the level-(k+1) vector of
    chain i, bottom first, with N @ chain[k] = chain[k-1] and
    N @ chain[0] = 0.
    """
    n_mat = asmod(np.asarray(n_mat), p)
    dim = n_mat.shape[0]
    if dim == 0:
        return []
    powers = [None, n_mat]  # powers[k] = N^k; N^0 = I is never multiplied
    while powers[-1].any():
        if len(powers) > dim:  # N^dim != 0
            raise ValueError("matrix is not nilpotent")
        powers.append(matmul_mod(powers[-1], n_mat, p))
    top_len = len(powers) - 1  # N^top_len = 0
    # r_k = rank N^k: im N^(k+1) lies in im N^k, so the block of N^k in the row rank
    # profile of the columns of N^(top_len-1), ..., N^1, stacked, holds r_k - r_(k+1) rows
    stack = [np.zeros((0, dim), n_mat.dtype)] + [powers[k].T for k in range(top_len - 1, 0, -1)]
    block = np.array(rref_mod(np.concatenate(stack), p)[2], dtype=np.intp) // dim
    ranks = [dim, *np.cumsum(np.bincount(block, minlength=top_len - 1))[::-1].tolist(), 0, 0]
    # N^(k-1) maps ker N^k onto the bottoms of the chains of length >= k,
    # with kernel ker N^(k-1); so v in ker N^k tops a new chain exactly
    # when its bottom N^(k-1) v is independent of the bottoms chosen so far
    bottoms = Echelon(p, dim)
    chains = []
    for k in range(top_len, 0, -1):
        if ranks[k - 1] - 2 * ranks[k] + ranks[k + 1] == 0:
            continue  # r_(k-1) - 2r_k + r_(k+1) chains have length k: none
        if k == top_len:  # N^k = 0: ker N^k has the basis I, with bottoms (N^(k-1))^T
            cands = np.eye(dim, dtype=n_mat.dtype)
            new = bottoms.add_rows(cands if k == 1 else np.ascontiguousarray(powers[k - 1].T))
        else:
            cands = kernel_mod(powers[k], p)
            new = bottoms.add_rows(cands if k == 1 else matmul_mod(cands, powers[k - 1].T, p))
        levels = [cands[new]]
        for _ in range(k - 1):
            levels.append(matmul_mod(levels[-1], n_mat.T, p))
        chains.extend(np.stack(levels[::-1], axis=1))
    assert sum(c.shape[0] for c in chains) == dim
    return chains


@lru_cache(maxsize=None)
def _block_delta_matrix(p: int, n: int, d: int):
    """Delta on Sym^d of an n-dim block, in code order (``PieceIndex``):
    sigma of every monomial at once, each tagged with its index, minus 1."""
    vspec = module_spec(p, [n])
    piece = PieceIndex(vspec, (d,))
    ids = np.arange(piece.size)
    exps, coefs, src = sigma_terms(vspec, piece.exps, np.ones_like(ids), ids)
    out = -np.eye(piece.size, dtype=np.int64)
    out[piece.rank(exps), src] += coefs
    return asmod(out, p)


@lru_cache(maxsize=None)
def _block_delta_chains(p: int, n: int, d: int):
    """Chains of Delta acting on Sym^d of an n-dim block, in code order.

    Past degree p - n, division by the norm N = N(x_1) splits the piece as
    N * Sym^(d-p) (+) R_d, R_d spanned by the monomials of x_1-degree < p.
    N is invariant, so N times the chains of Sym^(d-p) are chains.  sigma
    never raises the x_1-degree, so R_d is G-stable, and it is free: its
    chains have length p, topped by its monomials off the pivots of Delta(R_d).
    """
    delta = _block_delta_matrix(p, n, d)
    if d <= p - n:
        return nilpotent_chains(delta, p)
    piece = PieceIndex(module_spec(p, [n]), (d,))
    top = piece.exps[:, 0] < p  # the monomials of R_d, then its chain tops
    image = Echelon(p, piece.size)
    image.add_rows(np.ascontiguousarray(delta.T[top]))  # Delta of each monomial of R_d
    top[image.pivcols] = False
    assert image.rank == np.count_nonzero(top) * (p - 1)  # R_d is free
    levels = [np.eye(piece.size, dtype=delta.dtype)[top]]
    for _ in range(p - 1):
        levels.append(matmul_mod(levels[-1], delta.T, p))
    chains = list(np.stack(levels[::-1], axis=1))
    if d >= p:
        nrm = Terms(norm(piece.vspec, 1))
        mult = multiplication_map(nrm, PieceIndex(piece.vspec, (d - p,)), piece).T
        chains += [matmul_mod(c, mult, p) for c in _block_delta_chains(p, n, d - p)]
    return chains


@lru_cache(maxsize=None)
def _tensor_templates(p: int, a: int, b: int):
    """Chain basis of V_a (x) V_b over F_p, in product-chain coordinates.

    Coordinates are (s, t) -> s*b + t for chain levels s < a, t < b, with
    Delta(e_s (x) f_t) = e_{s-1} f_t + e_s f_{t-1} + e_{s-1} f_{t-1}.
    """
    idx = np.arange(a * b).reshape(a, b)
    dmat = np.zeros((a * b, a * b), dtype=np.int64)
    dmat[idx[:-1], idx[1:]] = 1  # column (s, t) has e_{s-1} f_t,
    dmat[idx[:, :-1], idx[:, 1:]] = 1  # e_s f_{t-1}
    dmat[idx[:-1, :-1], idx[1:, 1:]] = 1  # and e_{s-1} f_{t-1}
    return nilpotent_chains(dmat, p)


# -- multidegree pieces of k[V] -----------------------------------------


class PieceIndex:
    """The monomials of one multidegree piece of k[V], sorted by code.

    ``exps`` holds the exponent rows, shape (size, dim V), and ``codes``
    their codes ``exps @ weights`` (see the module docstring).  A code
    plus a code must fit in int64, so the piece's digit space
    prod_j (d_j + 1)^(n_j) is bounded by 2^62 before anything is listed.
    """

    def __init__(self, vspec: ModuleSpec, multidegree):
        self.vspec = vspec
        self.multidegree = tuple(multidegree)
        weights, space = [], 1  # space: digit space of the blocks after this one
        for n, d in zip(reversed(vspec.blocks), reversed(self.multidegree)):
            weights[:0] = [space * (d + 1) ** i for i in range(n)]
            space *= (d + 1) ** n
        if space >= 2**62:
            raise OverflowError("piece too large to index")
        self.weights = np.array(weights, dtype=np.int64)
        exps = np.zeros((1, 0), dtype=np.int64)
        for n, d in zip(vspec.blocks, self.multidegree):
            blk = _composition_rows(d, n)
            exps = np.hstack([np.repeat(exps, len(blk), axis=0), np.tile(blk, (len(exps), 1))])
        codes = exps @ self.weights
        order = np.argsort(codes)
        self.exps, self.codes = exps[order], codes[order]
        self.size = len(codes)

    def rank(self, exps):
        """Indices of exponent rows over all of V's variables."""
        return self.locate(np.atleast_2d(exps) @ self.weights)

    def locate(self, codes):
        """Indices of the given codes; KeyError if one is not in the piece."""
        idx = np.searchsorted(self.codes, codes)
        if (self.codes.take(idx, mode="clip") != codes).any():
            raise KeyError("monomial not in piece")
        return idx

    def vector_to_poly(self, vec) -> Polynomial:
        terms = {}
        for i in np.nonzero(vec)[0]:
            terms[tuple(int(e) for e in self.exps[i])] = int(vec[i])
        return Polynomial(self.vspec, terms)

    def poly_to_vector(self, f: Polynomial):
        out = np.zeros(self.size, dtype=np.int64)
        if f.terms:
            exps = np.array([list(m) for m in f.terms], dtype=np.int64)
            coefs = np.array(list(f.terms.values()), dtype=np.int64)
            out[self.rank(exps)] = coefs
        return out


class PieceChains:
    """Chain basis of a multidegree piece, built by folding tensor factors.

    ``rows`` holds the chains one after another, each bottom first, as
    residues mod p.  Per row, ``level`` is its level in its chain (0 at
    the bottom: an invariant) and ``above`` how many levels of that chain
    lie above it.  Delta maps a row of level k > 0 to the row before it,
    so the rows of level < k span { f : Delta^k f = 0 }.
    """

    def __init__(self, vspec: ModuleSpec, multidegree):
        self.index = PieceIndex(vspec, multidegree)
        p = vspec.p
        chains = None
        for n, d in zip(vspec.blocks, multidegree):
            blk = _block_delta_chains(p, n, d)
            blk = np.concatenate(blk), np.array([c.shape[0] for c in blk])
            chains = blk if chains is None else _fold_tensor(chains, blk, p)
        self.rows, lengths = chains
        self.level = np.arange(self.index.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        self.above = np.repeat(lengths, lengths) - 1 - self.level
        self._dim_le = [0] + np.cumsum(np.bincount(self.level)).tolist()  # rows of level < k
        assert self.rows.shape[0] == self.index.size

    def block_lengths(self):
        return sorted((self.above[self.level == 0] + 1).tolist(), reverse=True)

    @cached_property
    def _invariants(self):
        inv = self.rows[self.level == 0]
        inv.flags.writeable = False
        return inv

    def weight_le_matrix(self, k: int):
        """Rows: a basis of { f : Delta^k f = 0 } (bottom k chain levels), read-only for k = 1."""
        return self._invariants if k == 1 else self.rows[self.level < k]

    def dim_weight_le(self, k: int) -> int:
        return self._dim_le[min(k, len(self._dim_le) - 1)]


def _fold_tensor(left, right, p):
    """Chains of (span of left) (x) (span of right), as (rows, lengths): per
    left chain lc, right chain rc and template of their lengths (a, b), in
    that order, sum_{s,t} tv[s*b+t] * (lc[s] (x) rc[t]) per template vector
    tv, batched by (a, b): two products for all chains of those lengths."""
    (lrows, llen), (rrows, rlen) = left, right
    c1, c2 = lrows.shape[1], rrows.shape[1]
    lstart, rstart = np.cumsum(llen) - llen, np.cumsum(rlen) - rlen
    out = np.empty((c1 * c2, c1, c2), dtype=lrows.dtype)
    for a in sorted(set(llen.tolist())):
        li = np.flatnonzero(llen == a)
        lmat = lrows[lstart[li, None] + np.arange(a)].transpose(0, 2, 1).reshape(-1, a)
        for b in sorted(set(rlen.tolist())):
            ri = np.flatnonzero(rlen == b)
            tv = np.concatenate(_tensor_templates(p, a, b)).reshape(-1, b)  # rows (vector, s)
            rmat = rrows[rstart[ri, None] + np.arange(b)].transpose(1, 0, 2).reshape(b, -1)
            mid = matmul_mod(tv, rmat, p).reshape(a * b, a, -1).transpose(1, 0, 2).reshape(a, -1)
            big = matmul_mod(lmat, mid, p).reshape(len(li), c1, a * b, len(ri), c2)
            at = lstart[li, None] * c2 + a * rstart[ri]  # the first row of each pair's chains
            out[at[:, :, None] + np.arange(a * b)] = big.transpose(0, 3, 2, 1, 4)
    templates = [_tensor_templates(p, a, b) for a in llen.tolist() for b in rlen.tolist()]
    lengths = [len(t) for pair in templates for t in pair]
    return out.reshape(c1 * c2, -1), np.array(lengths)


class Terms:
    """A nonzero multihomogeneous polynomial ``poly`` and its term arrays,
    built once: exponent rows ``exps`` and residues ``coefs`` in its term
    order, ``multidegree`` (checked) and ``degree``."""

    def __init__(self, f: Polynomial):
        exps = np.array(list(f.terms), dtype=np.int64).reshape(-1, f.vspec.dim)
        mds = np.add.reduceat(exps, np.cumsum((0,) + f.vspec.blocks[:-1]), axis=1)
        if not len(mds) or (mds != mds[0]).any():
            raise ValueError("polynomial is zero or not multihomogeneous")
        self.poly, self.exps, self.multidegree = f, exps, tuple(mds[0].tolist())
        self.coefs = np.array(list(f.terms.values()), dtype=_dtype(f.vspec.p))
        self.degree = sum(self.multidegree)


def multiplication_map(g: Terms, source: PieceIndex, target: PieceIndex):
    """Dense matrix of 'multiply by g' from the source piece to the target.

    Exact mod p; columns indexed by source monomials.  g must have
    multidegree target - source (ValueError otherwise).  Then every product
    lies in the target, so under the target's weights its code is the
    term's code plus the source monomial's.
    """
    if g.multidegree != tuple(t - s for t, s in zip(target.multidegree, source.multidegree)):
        raise ValueError("target multidegree is not source + multidegree of g")
    cs, ct = source.size, target.size
    out = np.zeros((ct, cs), dtype=_dtype(target.vspec.p))
    src_codes = source.exps @ target.weights
    term_codes = g.exps @ target.weights
    cols = np.arange(cs)
    # vectorize over terms, chunked to bound the temporary
    chunk = max(1, int(2e6) // max(1, cs))
    for t0 in range(0, term_codes.size, chunk):
        rows = target.locate(term_codes[t0 : t0 + chunk, None] + src_codes)
        # distinct terms of g never collide on (row, col): row - col
        # determines the term's exponent vector
        out[rows, cols] = g.coefs[t0 : t0 + chunk, None]
    return out
