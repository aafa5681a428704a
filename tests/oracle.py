"""Reference oracles that only the tests use.

sigma on k[V] is applied term by term in pure Python, each x_{i,j}^e
replaced by (x_{i,j} + x_{i+1,j})^e multiplied out: independent of the
vectorized ``poly.sigma_terms`` the package computes with.  The dense
oracles write sigma as a full matrix, on W or on a total-degree piece of
k[V], and eliminate with the pure-Python ``modcov.field``: independent of
the chain bases and the numpy elimination, so the tests can cross-check
the two.  ``fold_tensor_by_triples`` is the tensor fold one (left chain,
right chain, template) triple at a time, two small products each: the
reference for the batched ``chains._fold_tensor``; ``permute_poly`` relabels
block variables one term at a time, the reference for
``generators._transport``.  ``nilpotent_chains_every_level`` is the chain
construction that runs its kernel, product and insertion at every level,
the reference for ``chains.nilpotent_chains``, which skips the levels
where no chain starts.  ``compositions`` lists compositions recursively,
the reference for the bar-position listing of ``poly._compositions``.

The rest back tests of their own: ``sigma_on_w`` and ``is_equivariant``
(the signed action on W of ``modcov.modules``), ``known_generators`` of
V_3 and 2V_2, ``is_decomposable_invariant``/``_covariant`` (through
``generators.span_coefficients``, which refuses inhomogeneous input),
``homogeneous_components``, ``block_lengths`` (a piece's Jordan type), the
``FpMatrix`` products ``identity``/``mul_vector``/``matmul`` and ``random_poly``.
"""

from collections import Counter
from functools import lru_cache

import numpy as np

from modcov.chains import PieceIndex, _block_delta_chains, _tensor_templates
from modcov.covariants import Covariant
from modcov.fastlinalg import Echelon, asmod, kernel_mod, matmul_mod
from modcov.field import FpMatrix, PrimeField, kernel_basis, rref
from modcov.generators import _engine, span_coefficients
from modcov.modules import ModuleSpec
from modcov.poly import (
    Polynomial,
    _operator_matrix,
    apply_sigma,
    graded_basis,
    norm,
    transfer,
    var_index,
    variables,
)


@lru_cache(maxsize=None)
def _sigma_var_image(vspec: ModuleSpec, i: int, j: int, e: int) -> Polynomial:
    """sigma(x_{i,j}^e), expanded."""
    n = vspec.blocks[j - 1]
    if i == n:
        return Polynomial.variable(vspec, i, j, e)
    img = Polynomial.variable(vspec, i, j) + Polynomial.variable(vspec, i + 1, j)
    out = Polynomial.constant(vspec, 1)
    base = img
    # binary powering keeps intermediate blowup down for large e
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


def apply_sigma_by_terms(f: Polynomial) -> Polynomial:
    """sigma(f), one term at a time: the product of the images of its powers."""
    vspec = f.vspec
    vars_ = variables(vspec)
    out = Polynomial.zero(vspec)
    for mon, c in f.terms.items():
        term = Polynomial.constant(vspec, c)
        for idx, e in enumerate(mon):
            if e:
                i, j = vars_[idx]
                term = term * _sigma_var_image(vspec, i, j, e)
        out = out + term
    return out


def permute_poly(f: Polynomial, blockperm) -> Polynomial:
    """Relabel block variables term by term: block t takes its exponents
    from block blockperm[t]."""
    varmap = [var_index(f.vspec, i, blockperm[j - 1] + 1) for i, j in variables(f.vspec)]
    return Polynomial(f.vspec, {tuple(mon[k] for k in varmap): c for mon, c in f.terms.items()})


def orbit_sum(f: Polynomial) -> Polynomial:
    """Sum of sigma^i(f) over i = 0..p-1; agrees with ``poly.transfer``."""
    out = Polynomial.zero(f.vspec)
    g = f
    for _ in range(f.vspec.p):
        out = out + g
        g = apply_sigma_by_terms(g)
    return out


def block_sigma_matrix(w: ModuleSpec) -> FpMatrix:
    """The matrix of sigma on a single block, columns = images of w_1..w_n."""
    n = w.blocks[0]
    m = FpMatrix(w.field, n, n)
    for i in range(1, n + 1):
        col = sigma_on_w(w, i)
        for j in range(n):
            m[j, i - 1] = col[j]
    return m


def sigma_matrix(w: ModuleSpec) -> FpMatrix:
    """Block-diagonal matrix of sigma on a (possibly decomposable) module."""
    d = w.dim
    m = FpMatrix(w.field, d, d)
    off = 0
    for n in w.blocks:
        blk = block_sigma_matrix(ModuleSpec(w.field, [n]))
        for r in range(n):
            for c in range(n):
                m[off + r, off + c] = blk[r, c]
        off += n
    return m


def decompose_by_delta_ranks(sigma: FpMatrix) -> Counter:
    """Jordan block sizes of the module afforded by ``sigma``.

    The number of blocks of size >= k is rank(Delta^(k-1)) - rank(Delta^k)
    where Delta = sigma - 1.  Raises if sigma does not have order dividing p.
    """
    fld = sigma.field
    p = fld.p
    d = sigma.rows
    if sigma.cols != d:
        raise ValueError("sigma must be square")
    power = sigma.copy()
    for _ in range(p - 1):
        power = matmul(power, sigma)
    if power != identity(fld, d):
        raise ValueError("input does not have order dividing p")
    delta = sigma.copy()
    for i in range(d):
        delta[i, i] = delta[i, i] - 1
    ranks = [d]  # rank of Delta^0
    m = identity(fld, d)
    while True:
        m = matmul(m, delta)
        _, _, r = rref(m)
        ranks.append(r)
        if r == 0:
            break
    # blocks of size exactly k: r_{k-1} - 2 r_k + r_{k+1}
    ranks.append(0)
    out = Counter()
    for k in range(1, len(ranks) - 1):
        cnt = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
        if cnt:
            out[k] = cnt
    return out


def graded_piece_block_structure(vspec: ModuleSpec, d: int):
    """Jordan block sizes of k[V]_d as a kG-module (multiset as a Counter)."""
    mons = graded_basis(vspec, d)
    mat = _operator_matrix(vspec, mons, apply_sigma_by_terms)
    return decompose_by_delta_ranks(mat)


def covariant_basis(vspec: ModuleSpec, wspec: ModuleSpec, d: int) -> list:
    """Basis of k[V,W]^G in degree d: kernel of (diagonal sigma - 1) on k[V]_d (x) W."""
    n = wspec.blocks[0]
    mons = graded_basis(vspec, d)
    index = {m: k for k, m in enumerate(mons)}
    dim = len(mons) * n
    mat = FpMatrix(vspec.field, dim, dim)
    sig_w = [sigma_on_w(wspec, i) for i in range(1, n + 1)]
    for col_m, m in enumerate(mons):
        img = apply_sigma_by_terms(Polynomial.from_monomial(vspec, m))
        for i in range(1, n + 1):
            col = col_m * n + (i - 1)
            for mm, c in img.terms.items():
                row_m = index[mm]
                for l in range(n):
                    coef = (c * sig_w[i - 1][l]) % vspec.p
                    if coef:
                        row = row_m * n + l
                        mat[row, col] = mat[row, col] + coef
    # kernel of sigma_diag - 1
    for k in range(dim):
        mat[k, k] = mat[k, k] - 1
    out = []
    for vec in kernel_basis(mat):
        comps = [Polynomial.zero(vspec) for _ in range(n)]
        for flat, c in enumerate(vec):
            if c:
                m = mons[flat // n]
                i = flat % n
                comps[i] = comps[i] + Polynomial.from_monomial(vspec, m, c)
        out.append(Covariant(vspec, wspec, comps))
    return out


def fold_tensor_by_triples(left_chains, right_chains, p):
    """Chains of (span of left_chains) (x) (span of right_chains), each a
    list of chain arrays: one template at a time for each pair of chains."""
    out = []
    for lc in left_chains:
        a, c1 = lc.shape
        for rc in right_chains:
            b, c2 = rc.shape
            for tmpl in _tensor_templates(p, a, b):
                # sum_{s,t} tv[s*b+t] * (lc[s] (x) rc[t]) for every template
                # vector tv at once: contract t against rc, then s against lc
                # on the transposed middle
                levels = tmpl.shape[0]
                mid = matmul_mod(tmpl.reshape(-1, b), rc, p).reshape(levels, a, c2)
                big = matmul_mod(lc.T, mid.transpose(1, 0, 2).reshape(a, -1), p)
                out.append(big.reshape(c1, levels, c2).transpose(1, 0, 2).reshape(levels, -1))
    return out


def piece_chains_by_triples(vspec: ModuleSpec, multidegree):
    """(rows, level, above) of a piece's chain basis, as ``PieceChains``
    lays it out, from the block chains folded by ``fold_tensor_by_triples``."""
    chains = None
    for n, d in zip(vspec.blocks, multidegree):
        blk = _block_delta_chains(vspec.p, n, d)
        chains = blk if chains is None else fold_tensor_by_triples(chains, blk, vspec.p)
    lengths = np.array([c.shape[0] for c in chains])
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    level = np.arange(PieceIndex(vspec, multidegree).size) - starts
    return np.concatenate(chains), level, np.repeat(lengths, lengths) - 1 - level


def nilpotent_chains_every_level(n_mat, p):
    """Jordan chains of a nilpotent matrix over F_p, as ``chains.nilpotent_chains``
    returns them, visiting every level: at level k the vectors of ker N^k
    whose bottoms N^(k-1) v are independent of the bottoms chosen so far
    top new chains of length k."""
    n_mat = asmod(np.asarray(n_mat), p)
    dim = n_mat.shape[0]
    if dim == 0:
        return []
    powers = [None, n_mat]  # powers[k] = N^k
    while powers[-1].any():
        if len(powers) > dim:  # N^dim != 0
            raise ValueError("matrix is not nilpotent")
        powers.append(matmul_mod(powers[-1], n_mat, p))
    top_len = len(powers) - 1  # N^top_len = 0
    bottoms = Echelon(p, dim)
    chains = []
    for k in range(top_len, 0, -1):
        if k == top_len:  # ker N^k has the basis I, with bottoms (N^(k-1))^T
            cands = np.eye(dim, dtype=n_mat.dtype)
            new = bottoms.add_rows(cands if k == 1 else np.ascontiguousarray(powers[k - 1].T))
        else:
            cands = kernel_mod(powers[k], p)
            new = bottoms.add_rows(cands if k == 1 else matmul_mod(cands, powers[k - 1].T, p))
        if not new:
            continue
        levels = [cands[new]]
        for _ in range(k - 1):
            levels.append(matmul_mod(levels[-1], n_mat.T, p))
        chains.extend(np.stack(levels[::-1], axis=1))
    assert sum(c.shape[0] for c in chains) == dim
    return chains


def compositions(total: int, parts: int):
    """All tuples of `parts` naturals summing to `total`, first part
    largest first, listed recursively."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def identity(field: PrimeField, n: int) -> FpMatrix:
    return FpMatrix(field, n, n, [int(r == c) for r in range(n) for c in range(n)])


def mul_vector(m: FpMatrix, v: list) -> list:
    return matmul(m, FpMatrix(m.field, len(v), 1, v)).entries


def matmul(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    if a.cols != b.rows:
        raise ValueError("dimension mismatch")
    cols = [b.entries[c :: b.cols] for c in range(b.cols)]
    prods = [sum(x * y for x, y in zip(a.row(r), col)) for r in range(a.rows) for col in cols]
    return FpMatrix(a.field, a.rows, b.cols, prods)


def sigma_on_w(w: ModuleSpec, i: int) -> list:
    """Coefficient vector of sigma(w_i) in the basis w_1..w_n of a single block."""
    if w.num_blocks != 1:
        raise ValueError("sigma_on_w expects a single-block module")
    n = w.blocks[0]
    if not 1 <= i <= n:
        raise IndexError(f"basis index {i} out of range 1..{n}")
    return [((-1) ** (i - j)) % w.p if j <= i else 0 for j in range(1, n + 1)]


def is_equivariant(h: Covariant) -> bool:
    """Direct check of invariance under the diagonal action.

    Collects w-coordinates of sigma(h) = sum_i sigma(f_i) sigma(w_i) and
    compares with h.  Independent of ``Covariant.validate_chain``.
    """
    comps = h.components
    sig = [apply_sigma(c) for c in comps]
    for j in range(1, h.n + 1):
        acc = Polynomial.zero(h.vspec)
        for i in range(j, h.n + 1):
            acc = acc + sig[i - 1].scale(sigma_on_w(h.wspec, i)[j - 1])
        if acc != comps[j - 1]:
            return False
    return True


def homogeneous_components(f: Polynomial) -> dict:
    """Split into (total degree -> Polynomial)."""
    out = {}
    for m, c in f.terms.items():
        out.setdefault(sum(m), {})[m] = c
    return {d: Polynomial(f.vspec, t) for d, t in sorted(out.items())}


def block_lengths(pc) -> list:
    """Jordan block sizes of a ``chains.PieceChains`` piece, largest first."""
    return sorted((pc.above[pc.level == 0] + 1).tolist(), reverse=True)


def known_generators(vspec: ModuleSpec):
    """Explicit minimal generating sets known in closed form.

    Covers V = V_3 for p >= 3 (degrees {1, 2, p, p}) and V = 2V_2
    (degrees {1, 1, 2, p, p}: the two bottom variables, the invariant
    u = x_{1,1}x_{2,2} - x_{2,1}x_{1,2}, and the two norms; at p = 2 the
    transfer Tr(x_{1,1}x_{1,2}) = u + x_{2,1}x_{2,2} generates equally
    well and is listed instead).  Returns [] for anything else.
    """
    p = vspec.p
    if vspec.blocks == (3,) and p >= 3:
        x1, x2, x3 = (Polynomial.variable(vspec, i, 1) for i in (1, 2, 3))
        quad = x2 * x2 - (x1 * x3).scale(2) - x2 * x3
        tr = transfer(Polynomial.variable(vspec, 1, 1, e=p - 1) * x2)
        return [x3, quad, norm(vspec, 1), tr]
    if vspec.blocks == (2, 2):
        x11, x21, x12, x22 = (Polynomial.variable(vspec, i, j) for j in (1, 2) for i in (1, 2))
        u = transfer(x11 * x12) if p == 2 else x11 * x22 - x21 * x12
        return [x21, x22, u, norm(vspec, 1), norm(vspec, 2)]
    return []


def is_decomposable_invariant(f: Polynomial, lower_gens=None) -> bool:
    """Is f in the subalgebra generated by invariants of smaller degree?

    ``lower_gens`` may list polynomials that generate k[V]^G in degrees
    below deg f (only their positive-degree members below deg f are used);
    by default the minimal algebra generators are computed.
    """
    if f.is_zero():
        return True
    if lower_gens is None:
        eng = _engine(f.vspec)
        eng.ensure_algebra(through=f.total_degree())
        lower_gens = eng._alg.gens
    # a constant would put all of k[V]^G_d in the span: positive degrees only
    return span_coefficients(f, [g for g in lower_gens if g.total_degree()]) is not None


def is_decomposable_covariant(h: Covariant) -> bool:
    """Is h in the submodule generated by covariants of smaller degree?"""
    if h.is_zero():
        return True
    eng = _engine(h.vspec)
    eng.ensure_covariant(h.n, through=h.f1.total_degree())
    return span_coefficients(h.f1, eng._cov[h.n].gens) is not None


def random_poly(rng, vspec, max_deg=3, max_terms=4, min_terms=1):
    terms = {}
    for _ in range(rng.randrange(min_terms, max_terms + 1)):
        mon = [0] * vspec.dim
        for _ in range(rng.randrange(max_deg + 1)):
            mon[rng.randrange(vspec.dim)] += 1
        terms[tuple(mon)] = rng.randrange(1, vspec.p)
    return Polynomial(vspec, terms)
