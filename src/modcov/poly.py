"""The acted polynomial ring k[V] for V a kG-module, G cyclic of order p.

Variables are x_{i,j} with j indexing the Jordan block of V and i the row
within that block.  The generator sigma acts by

    sigma(x_{i,j}) = x_{i,j} + x_{i+1,j}   (i < n_j),
    sigma(x_{n_j,j}) = x_{n_j,j},

which preserves total degree and the per-block multidegree; ``sigma_terms``
alone applies it, for ``apply_sigma`` and for the chain layer.  Polynomials
are sparse: a dict from exponent tuples (one slot per variable, block-major
row-minor order) to nonzero residues mod p.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .field import FpMatrix, kernel_basis
from .modules import ModuleSpec


def variables(vspec: ModuleSpec) -> list:
    """All (i, j) variable labels of k[V], block-major row-minor."""
    out = []
    for j, n in enumerate(vspec.blocks, start=1):
        for i in range(1, n + 1):
            out.append((i, j))
    return out


def var_index(vspec: ModuleSpec, i: int, j: int) -> int:
    """Position of x_{i,j} in the exponent tuple."""
    if not 1 <= j <= vspec.num_blocks:
        raise IndexError(f"block index {j} out of range")
    if not 1 <= i <= vspec.blocks[j - 1]:
        raise IndexError(f"row index {i} out of range for block {j}")
    return sum(vspec.blocks[: j - 1]) + (i - 1)


class Polynomial:
    """Sparse multivariate polynomial over F_p with an ambient V spec."""

    __slots__ = ("vspec", "terms")

    def __init__(self, vspec: ModuleSpec, terms=None):
        self.vspec = vspec
        self.terms = {}
        if terms:
            p = vspec.p
            for mon, c in terms.items():
                c %= p
                if c:
                    self.terms[tuple(mon)] = c

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vspec):
        return cls(vspec)

    @classmethod
    def constant(cls, vspec, c):
        return cls(vspec, {(0,) * vspec.dim: c})

    @classmethod
    def variable(cls, vspec, i, j, e=1, coeff=1):
        mon = [0] * vspec.dim
        mon[var_index(vspec, i, j)] = e
        return cls(vspec, {tuple(mon): coeff})

    @classmethod
    def from_monomial(cls, vspec, mon, coeff=1):
        return cls(vspec, {tuple(mon): coeff})

    # -- basics -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.vspec == other.vspec
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vspec, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        p = self.vspec.p
        out = dict(self.terms)
        for mon, c in other.terms.items():
            s = (out.get(mon, 0) + c) % p
            if s:
                out[mon] = s
            else:
                out.pop(mon, None)
        return Polynomial(self.vspec, out)

    def __neg__(self):
        p = self.vspec.p
        return Polynomial(self.vspec, {m: (-c) % p for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        p = self.vspec.p
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = (out.get(m, 0) + c1 * c2) % p
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(self.vspec, out)

    __rmul__ = __mul__

    def scale(self, c: int):
        c %= self.vspec.p
        if c == 0:
            return Polynomial.zero(self.vspec)
        p = self.vspec.p
        return Polynomial(self.vspec, {m: (cc * c) % p for m, cc in self.terms.items()})

    def _check(self, other):
        if self.vspec != other.vspec:
            raise ValueError("ambient module specs differ")

    # -- grading ------------------------------------------------------

    def total_degree(self):
        """Max total degree of the terms; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def multidegree(self):
        """Per-block degree vector; raises if not multihomogeneous."""
        mds = {monomial_multidegree(self.vspec, m) for m in self.terms}
        if len(mds) > 1:
            raise ValueError("polynomial is not multihomogeneous")
        return next(iter(mds)) if mds else None

    def homogeneous_components(self):
        """Split into (total degree -> Polynomial)."""
        out = {}
        for m, c in self.terms.items():
            out.setdefault(sum(m), {})[m] = c
        return {d: Polynomial(self.vspec, t) for d, t in sorted(out.items())}

    def multihomogeneous_components(self):
        out = {}
        for m, c in self.terms.items():
            out.setdefault(monomial_multidegree(self.vspec, m), {})[m] = c
        return {md: Polynomial(self.vspec, t) for md, t in sorted(out.items())}

    def __repr__(self):
        from .parsing import format_polynomial

        return f"Polynomial({format_polynomial(self)!r})"


def monomial_multidegree(vspec: ModuleSpec, mon) -> tuple:
    out = []
    off = 0
    for n in vspec.blocks:
        out.append(sum(mon[off : off + n]))
        off += n
    return tuple(out)


def mon_sort_key(mon):
    """Canonical term order: total degree descending, then lex descending.

    Sorting with this key ascending puts terms in canonical order, because
    both components are negated.
    """
    return (-sum(mon), tuple(-e for e in mon))


# -- the action -------------------------------------------------------


def _binom_mod(e, k, p: int):
    """C(e, k) mod p for arrays 0 <= k <= e, digit by digit (Lucas' theorem)."""
    fact = [1]
    for i in range(1, min(p, int(e.max(initial=0)) + 1)):  # the digits that occur
        fact.append(fact[-1] * i % p)
    fact, inv = np.array(fact), np.array([pow(f, p - 2, p) for f in fact])
    out = np.ones_like(e)
    while e.any():
        ed, kd = e % p, k % p
        digit = fact[ed] * inv[kd] % p * inv[np.maximum(ed - kd, 0)] % p
        out = np.where(kd <= ed, out * digit % p, 0)
        e, k = e // p, k // p
    return out


def sigma_terms(vspec: ModuleSpec, exps, coefs, src):
    """sigma of the terms coefs[t] * x^exps[t], each image term tagged src[t] >= 0.

    The one place where sigma(x_{i,j}) = x_{i,j} + x_{i+1,j} is applied:
    one variable at a time, each block from its bottom row up, so the
    x_{i+1,j} a step adds is already final.  Equal (src, exponent) rows
    are merged after every step, sorted on ``_packed_keys``.  ``exps`` is
    int64, shape (terms, dim V); input and output rows are distinct.
    """
    p = vspec.p
    terms = np.column_stack([src, exps])  # column off + i: exponent of x_{i,j}
    for off, n in zip(itertools.accumulate(vspec.blocks, initial=0), vspec.blocks):
        for c in range(off + n - 1, off, -1):  # x_{n,j}, in column off + n, is fixed
            # x^e -> sum over k of C(e, k) x^(e-k) y^k, with y the next variable
            e = terms[:, c]
            rows = np.repeat(np.arange(e.size), e + 1)
            k = np.arange(rows.size) - np.repeat(np.cumsum(e + 1) - (e + 1), e + 1)
            coefs = coefs[rows] * _binom_mod(e[rows], k, p) % p
            nz = coefs != 0
            terms, k, coefs = terms[rows[nz]], k[nz], coefs[nz]
            terms[:, c] -= k
            terms[:, c + 1] += k
            keys = _packed_keys(terms)
            order = np.lexsort(keys[::-1])
            starts = np.flatnonzero(np.diff(keys[:, order], axis=1, prepend=-1).any(axis=0))
            sums = np.add.reduceat(coefs[order], starts) % p
            terms, coefs = terms[order[starts[sums != 0]]], sums[sums != 0]
    return terms[:, 1:], coefs, terms[:, 0]


def _packed_keys(terms):
    """int64 keys, most significant first, ordering the rows of the
    nonnegative ``terms`` as its columns do: runs of columns packed into
    exact mixed-radix keys while a key's digit space stays below 2^63."""
    keys, space = [], 2**63
    for col, top in zip(terms.T, terms.max(axis=0, initial=0).tolist()):
        if space * (top + 1) < 2**63:
            keys[-1], space = keys[-1] * (top + 1) + col, space * (top + 1)
        else:
            keys, space = keys + [col], top + 1
    return np.array(keys)


def apply_sigma(f: Polynomial) -> Polynomial:
    """The ring automorphism sigma applied to f, through ``sigma_terms``."""
    exps = np.array(list(f.terms), dtype=np.int64).reshape(len(f.terms), f.vspec.dim)
    coefs = np.array(list(f.terms.values()), dtype=np.int64)
    exps, coefs, _ = sigma_terms(f.vspec, exps, coefs, np.zeros(coefs.size, dtype=np.int64))
    return Polynomial(f.vspec, dict(zip(map(tuple, exps.tolist()), coefs.tolist())))


def delta(f: Polynomial) -> Polynomial:
    """Delta = sigma - 1."""
    return apply_sigma(f) - f


def delta_power(f: Polynomial, k: int) -> Polynomial:
    if k < 0:
        raise ValueError("negative power")
    for _ in range(k):
        if f.is_zero():
            break
        f = delta(f)
    return f


def transfer(f: Polynomial) -> Polynomial:
    """The transfer Tr = Delta^(p-1)."""
    return delta_power(f, f.vspec.p - 1)


def weight(f: Polynomial) -> int:
    """Smallest d >= 1 with Delta^d(f) = 0; rejects the zero polynomial."""
    if f.is_zero():
        raise ValueError("weight of the zero polynomial is undefined")
    d = 0
    while not f.is_zero():
        f = delta(f)
        d += 1
        if d > f.vspec.p:  # unreachable: Delta^p = 0
            raise AssertionError("weight exceeded p")
    return d


def is_invariant(f: Polynomial) -> bool:
    return delta(f).is_zero()


@lru_cache(maxsize=None)
def norm(vspec: ModuleSpec, j: int) -> Polynomial:
    """N_j: the orbit product of x_{1,j}, an invariant of degree p monic in x_{1,j}."""
    if not 1 <= j <= vspec.num_blocks:
        raise IndexError(f"block index {j} out of range")
    out = Polynomial.constant(vspec, 1)
    g = Polynomial.variable(vspec, 1, j)
    for _ in range(vspec.p):
        out = out * g
        g = apply_sigma(g)
    return out


def divide_by_norm(f: Polynomial, j: int):
    """Long division f = q*N_j + r with deg_{x_{1,j}}(r) < p.

    N_j is monic of degree p in x_{1,j}, so q and r are unique.  If f is
    invariant, so are q and r (the splitting is G-stable).
    """
    vspec = f.vspec
    p = vspec.p
    nj = norm(vspec, j)
    xidx = var_index(vspec, 1, j)
    # nj minus its leading term x_{1,j}^p, used to fold the remainder down
    lead_mon = [0] * vspec.dim
    lead_mon[xidx] = p
    tail = nj - Polynomial.from_monomial(vspec, lead_mon)

    q = Polynomial.zero(vspec)
    r = f
    while True:
        # highest x_{1,j}-degree term block of r with degree >= p
        top = {m: c for m, c in r.terms.items() if m[xidx] >= p}
        if not top:
            break
        d = max(m[xidx] for m in top)
        cur = {m: c for m, c in top.items() if m[xidx] == d}
        # factor out x_{1,j}^p
        shifted = {}
        for m, c in cur.items():
            mm = list(m)
            mm[xidx] -= p
            shifted[tuple(mm)] = c
        qpart = Polynomial(vspec, shifted)
        q = q + qpart
        r = r - qpart * nj
    return q, r


# -- graded pieces ----------------------------------------------------


def _composition_rows(total: int, parts: int):
    """int64 rows, increasing lexicographically: the compositions of total >= 0 into
    parts >= 1 naturals, as the gaps between parts - 1 bars in total + parts - 1 slots."""
    bars = np.array(list(itertools.combinations(range(total + parts - 1), parts - 1)), np.int64)
    return np.diff(bars, axis=1, prepend=-1, append=total + parts - 1) - 1


def _compositions(total: int, parts: int):
    """All tuples of `parts` naturals summing to `total`, decreasing lexicographically."""
    if parts == 0 or total < 0:
        return iter([()] if parts == total == 0 else [])
    return map(tuple, _composition_rows(total, parts)[::-1].tolist())


def graded_basis(vspec: ModuleSpec, d=None, multidegree=None) -> list:
    """Monomials of total degree d (or the given multidegree), canonical order."""
    if multidegree is not None:
        if len(multidegree) != vspec.num_blocks:
            raise ValueError("multidegree length != number of blocks")
        per_block = [
            list(_compositions(md, n)) for md, n in zip(multidegree, vspec.blocks)
        ]
        mons = [tuple(itertools.chain(*combo)) for combo in itertools.product(*per_block)]
    else:
        if d < 0:
            raise ValueError("degree must be >= 0")
        mons = [tuple(m) for m in _compositions(d, vspec.dim)]
    return sorted(mons, key=mon_sort_key)


def _operator_matrix(vspec: ModuleSpec, mons, op) -> FpMatrix:
    """Matrix (columns = images of basis monomials) of a linear operator on a piece."""
    index = {m: k for k, m in enumerate(mons)}
    mat = FpMatrix(vspec.field, len(mons), len(mons))
    for col, m in enumerate(mons):
        img = op(Polynomial.from_monomial(vspec, m))
        for mm, c in img.terms.items():
            mat[index[mm], col] = c
    return mat


def invariant_basis(vspec: ModuleSpec, d: int) -> list:
    """Basis of k[V]^G in total degree d, as the kernel of Delta on the piece."""
    mons = graded_basis(vspec, d)
    mat = _operator_matrix(vspec, mons, delta)
    out = []
    for vec in kernel_basis(mat):
        out.append(Polynomial(vspec, {m: c for m, c in zip(mons, vec) if c}))
    return out


def delta_power_preimage(g: Polynomial, k: int):
    """Some f with Delta^k(f) = g, or None if g is not in the image of Delta^k.

    Works per multihomogeneous component in the chain basis of its piece
    (``chains.PieceChains``).  Delta^k maps chain level l + k onto level l,
    so a component is in the image exactly when it is a combination of the
    levels below the top k of each chain, and the same combination of the
    levels k higher is a preimage, reduced modulo the rref of ker Delta^k
    (the levels below k) so that it does not depend on the chain basis.
    """
    from . import chains
    from .fastlinalg import Echelon, _reduce_against, matmul_mod, solve_mod

    if k < 0:
        raise ValueError("negative power")
    vspec, p = g.vspec, g.vspec.p
    out = Polynomial.zero(vspec)
    for md, comp in g.multihomogeneous_components().items():
        pc = chains.PieceChains(vspec, md)
        low, high = pc.rows[pc.above >= k], pc.rows[pc.level >= k]
        x = solve_mod(low, pc.index.poly_to_vector(comp), p)
        if x is None:
            return None
        kernel = Echelon(p, pc.index.size)
        kernel.add_rows(pc.rows[pc.level < k])
        f = _reduce_against(matmul_mod(x[None, :], high, p), kernel.rows, kernel.pivcols, p)
        out = out + pc.index.vector_to_poly(f[0])
    return out
