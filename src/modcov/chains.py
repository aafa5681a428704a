"""Jordan chain bases for graded pieces of k[V].

The action of G preserves the per-block multidegree, and a multidegree
piece of k[V] is the tensor product of symmetric powers of the duals of
the individual Jordan blocks.  Chains are therefore built structurally:

  * a symmetric power of a single block is small (its dimension is a
    binomial coefficient in the block size); its Delta matrix comes from
    one ``poly.sigma_terms`` call, and its chains from a direct
    nilpotent-chain computation on that matrix;
  * the chain type of a tensor product of two chains of lengths a and b
    depends only on (p, a, b), so a chain basis of V_a (x) V_b is computed
    once per shape and instantiated for every pair of chains.

From a chain basis everything the generator computations need is cheap:
invariants are the chain bottoms, polynomials of weight <= k are the
bottom k levels, and the Jordan type is the multiset of chain lengths.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .fastlinalg import Echelon, _dtype, asmod, kernel_mod, matmul_mod
from .modules import ModuleSpec, module_spec
from .poly import Polynomial, _compositions, sigma_terms


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
    powers = [np.eye(dim, dtype=np.int64)]
    while True:
        nxt = matmul_mod(powers[-1], n_mat, p)
        powers.append(nxt)
        if not nxt.any():
            break
        if len(powers) > dim + 1:
            raise ValueError("matrix is not nilpotent")
    top_len = len(powers) - 1  # N^top_len = 0
    # N^(k-1) maps ker N^k onto the bottoms of the chains of length >= k,
    # with kernel ker N^(k-1); so v in ker N^k tops a new chain exactly
    # when its bottom N^(k-1) v is independent of the bottoms chosen so far
    bottoms = Echelon(p, dim)
    chains = []
    for k in range(top_len, 0, -1):
        cands = kernel_mod(powers[k], p)
        new = bottoms.add_rows(matmul_mod(cands, powers[k - 1].T, p))
        if not new:
            continue
        levels = [cands[new].astype(np.int64)]
        for _ in range(k - 1):
            levels.append(matmul_mod(levels[-1], n_mat.T, p).astype(np.int64))
        chains.extend(np.stack(levels[::-1], axis=1))
    assert sum(c.shape[0] for c in chains) == dim
    return chains


# -- single-block symmetric powers --------------------------------------


class BlockPiece:
    """Monomials of one degree in the variables of a single block, indexed."""

    def __init__(self, n_vars: int, degree: int):
        self.n_vars = n_vars
        self.degree = degree
        exps = np.array(list(_compositions(degree, n_vars)), dtype=np.int64)
        base = degree + 1
        if n_vars and float(base) ** n_vars >= 2**62:
            raise OverflowError("piece too large to index")
        self._base = base
        codes = self._encode(exps)
        order = np.argsort(codes)
        self.exps = exps[order]
        self.codes = codes[order]
        self.size = self.exps.shape[0]

    def _encode(self, exps):
        if self.n_vars == 0:
            return np.zeros(exps.shape[0], dtype=np.int64)
        weights = self._base ** np.arange(self.n_vars, dtype=np.int64)
        return exps.astype(np.int64) @ weights

    def rank(self, exps):
        """Indices of the given exponent rows (must belong to the piece)."""
        codes = self._encode(np.atleast_2d(exps))
        idx = np.searchsorted(self.codes, codes)
        if np.any(idx >= self.size) or np.any(self.codes[np.minimum(idx, self.size - 1)] != codes):
            raise KeyError("exponent row not in piece")
        return idx


@lru_cache(maxsize=None)
def _block_delta_matrix(p: int, n: int, d: int):
    """Delta on Sym^d of an n-dim block, in the monomial order of BlockPiece:
    sigma of every monomial at once, each tagged with its index, minus 1."""
    piece = BlockPiece(n, d)
    ids = np.arange(piece.size)
    exps, coefs, src = sigma_terms(module_spec(p, [n]), piece.exps, np.ones_like(ids), ids)
    out = -np.eye(piece.size, dtype=np.int64)
    out[piece.rank(exps), src] += coefs
    return asmod(out, p)


@lru_cache(maxsize=None)
def _block_delta_chains(p: int, n: int, d: int):
    """Chains of Delta acting on Sym^d of an n-dim block (BlockPiece order)."""
    return nilpotent_chains(_block_delta_matrix(p, n, d), p)


@lru_cache(maxsize=None)
def _tensor_templates(p: int, a: int, b: int):
    """Chain basis of V_a (x) V_b over F_p, in product-chain coordinates.

    Coordinates are (s, t) -> s*b + t for chain levels s < a, t < b, with
    Delta(e_s (x) f_t) = e_{s-1} f_t + e_s f_{t-1} + e_{s-1} f_{t-1}.
    """
    dim = a * b
    dmat = np.zeros((dim, dim), dtype=np.int64)
    for s in range(a):
        for t in range(b):
            col = s * b + t
            if s > 0:
                dmat[(s - 1) * b + t, col] += 1
            if t > 0:
                dmat[s * b + (t - 1), col] += 1
            if s > 0 and t > 0:
                dmat[(s - 1) * b + (t - 1), col] += 1
    return nilpotent_chains(dmat, p)


# -- multidegree pieces of k[V] -----------------------------------------


class PieceIndex:
    """Monomial indexing for one multidegree piece of k[V].

    The flat index nests block indices block-major: a monomial
    (m_1, ..., m_m) has index ((i_1 * c_2 + i_2) * c_3 + ...) so that
    tensor products of per-block vectors are plain Kronecker products.
    """

    def __init__(self, vspec: ModuleSpec, multidegree):
        self.vspec = vspec
        self.multidegree = tuple(multidegree)
        self.blocks = [
            BlockPiece(n, d) for n, d in zip(vspec.blocks, self.multidegree)
        ]
        self.size = 1
        for b in self.blocks:
            self.size *= b.size
        self._exps = None

    def rank(self, exps):
        """Flat indices for exponent rows over all of V's variables."""
        exps = np.atleast_2d(exps)
        idx = np.zeros(exps.shape[0], dtype=np.int64)
        off = 0
        for bp in self.blocks:
            idx = idx * bp.size + bp.rank(exps[:, off : off + bp.n_vars])
            off += bp.n_vars
        return idx

    def exponents(self):
        """Full exponent matrix, shape (size, dim V), in index order; cached."""
        if self._exps is None:
            parts = [bp.exps for bp in self.blocks]
            out = parts[0]
            for nxt in parts[1:]:
                left = np.repeat(out, nxt.shape[0], axis=0)
                right = np.tile(nxt, (out.shape[0], 1))
                out = np.concatenate([left, right], axis=1)
            self._exps = out
        return self._exps

    def vector_to_poly(self, vec) -> Polynomial:
        exps = self.exponents()
        terms = {}
        for i in np.nonzero(vec)[0]:
            terms[tuple(int(e) for e in exps[i])] = int(vec[i])
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
            chains = blk if chains is None else _fold_tensor(chains, blk, p)
        self.rows = asmod(np.concatenate(chains), p)
        lengths = np.array([c.shape[0] for c in chains])
        self.level = np.arange(self.index.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        self.above = np.repeat(lengths, lengths) - 1 - self.level
        assert self.rows.shape[0] == self.index.size

    def block_lengths(self):
        return sorted((self.above[self.level == 0] + 1).tolist(), reverse=True)

    def weight_le_matrix(self, k: int):
        """Rows: a basis of { f : Delta^k f = 0 } (bottom k chain levels)."""
        return self.rows[self.level < k]

    def dim_weight_le(self, k: int) -> int:
        return int(np.count_nonzero(self.level < k))


def _fold_tensor(left_chains, right_chains, p):
    """Chains of (span of left_chains) (x) (span of right_chains)."""
    out = []
    for lc in left_chains:
        a, c1 = lc.shape
        for rc in right_chains:
            b, c2 = rc.shape
            for tmpl in _tensor_templates(p, a, b):
                # sum_{s,t} tv[s*b+t] * (lc[s] (x) rc[t]) for every template
                # vector tv at once: contract t against rc, then s against lc
                # on the transposed middle; matmul_mod checks each is exact
                levels = tmpl.shape[0]
                mid = matmul_mod(tmpl.reshape(-1, b), rc, p).reshape(levels, a, c2)
                big = matmul_mod(lc.T, mid.transpose(1, 0, 2).reshape(a, -1), p)
                out.append(big.reshape(c1, levels, c2).transpose(1, 0, 2).reshape(levels, -1))
    return out


def multiplication_map(g: Polynomial, source: PieceIndex, target: PieceIndex):
    """Dense matrix of 'multiply by g' from the source piece to the target.

    Exact mod p; columns indexed by source monomials.  Multidegrees must be
    compatible (target = source + multidegree of g), which holds for the
    multihomogeneous g used by the generator computations.
    """
    p = g.vspec.p
    cs, ct = source.size, target.size
    out = np.zeros((ct, cs), dtype=_dtype(p))
    src_exps = source.exponents()
    mons = np.array([list(m) for m in g.terms], dtype=np.int64)
    coefs = np.array([c % p for c in g.terms.values()], dtype=_dtype(p))
    cols = np.arange(cs)
    # vectorize over terms, chunked to bound the temporary
    chunk = max(1, int(2e6) // max(1, cs))
    for t0 in range(0, mons.shape[0], chunk):
        mm = mons[t0 : t0 + chunk]
        shifted = (src_exps[None, :, :] + mm[:, None, :]).reshape(-1, src_exps.shape[1])
        rows = target.rank(shifted)
        # distinct terms of g never collide on (row, col): row - col
        # determines the term's exponent vector
        flat = rows * cs + np.tile(cols, mm.shape[0])
        out.reshape(-1)[flat] = np.repeat(coefs[t0 : t0 + chunk], cs)
    return out
