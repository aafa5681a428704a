"""Minimal generator degrees via the graded Nakayama lemma.

Three graded objects are analyzed over A = k[V]^G:

  * the invariant algebra A itself (minimal algebra generators),
  * k[V] as an A-module (the coinvariant dimensions; the top nonzero
    degree is called gamma),
  * the covariant module k[V,W]^G for an indecomposable W, identified
    with { f in k[V] : Delta^n f = 0 } via its chain representation.

In each case the count of minimal generators in degree d is
dim(object)_d - dim(span of products with lower-degree pieces)_d, and a
certified degree cap guarantees that no generators exist beyond it:
max(p, m*p - dim V, gamma) for the algebra (norms, the degree bound on
non-norm generators, and A-linearity of the transfer), and
max(gamma, m*p - dim V) for covariant modules.

Each object is an A-module M (A_+, the weight <= n elements, or k[V] =
k[V,V_p]^G for the coinvariants) whose minimal generators of degree d
span a complement of (A_+M)_d.  One routine, ``_covariant_piece`` over
``_span_rows``, computes it per multidegree piece from either side of
A_+M = (sum over generators h of M of A_+ h) = (sum over algebra
generators g of g M).  The algebra and the covariant modules use the
first, with fewer rows (V_4 + V_3 at p = 5, n = 2: 42,408 against
76,521); the coinvariants use the second, whose rows are multiplication
maps in monomials with no product to take (189,893 against 123,493 rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import chains, formulas
from .fastlinalg import Echelon, _dtype, asmod, solve_mod
from .fastlinalg import matmul_mod as _mm
from .modules import ModuleSpec
from .poly import Polynomial, _compositions, var_index, variables

__all__ = [
    "BetaReport",
    "algebra_beta",
    "coinvariants_dims",
    "covariant_beta",
    "gamma",
    "is_decomposable_covariant",
    "is_decomposable_invariant",
    "module_generators",
    "span_coefficients",
]


@dataclass
class BetaReport:
    """Minimal generator degrees of one graded object, with a certified cap.

    ``target`` is one of "algebra", "polynomial-module", "covariant-module".
    ``generator_counts`` maps degree -> number of minimal generators;
    ``beta`` is the largest degree with a nonzero count.  Every report runs
    through the certified cap ``cap_used``, so ``certified`` is always True.
    ``witnesses`` holds one minimal generator per generating degree (a
    Polynomial, or a weight polynomial f_1 for covariant modules).
    """

    target: str
    generator_counts: dict
    beta: int
    cap_used: int
    cap_certificate: str
    certified: bool = True
    witnesses: dict = field(default_factory=dict)

    def generator_degrees(self):
        """Sorted multiset of generator degrees."""
        out = []
        for d in sorted(self.generator_counts):
            out.extend([d] * self.generator_counts[d])
        return out


@dataclass(frozen=True)
class _Gen:
    degree: int
    multidegree: tuple
    poly: Polynomial


@dataclass
class _Graded:
    """One graded object as computed so far: generator counts by degree,
    the minimal generators in discovery order, and the last degree done."""

    counts: dict
    gens: list
    done: int = 0


def _permute_poly(f: Polynomial, blockperm) -> Polynomial:
    """Relabel block variables: block t takes its exponents from block
    blockperm[t] (blocks of equal size only, an algebra automorphism
    commuting with the group action)."""
    vspec = f.vspec
    varmap = [var_index(vspec, i, blockperm[j - 1] + 1) for i, j in variables(vspec)]
    terms = {}
    for mon, c in f.terms.items():
        terms[tuple(mon[k] for k in varmap)] = c
    return Polynomial(vspec, terms)


class GradedEngine:
    """Caches chain bases and generator computations for one V."""

    def __init__(self, vspec: ModuleSpec):
        if vspec.num_blocks == 0:
            raise ValueError("V must have at least one block")
        self.vspec = vspec
        self.p = vspec.p
        self.m = vspec.num_blocks
        self._pieces = {}  # multidegree -> PieceChains
        self._canon = {}  # multidegree -> (canonical md, block permutation)
        # algebra generators and k[V] over A (the coinvariants), extended
        # together degree by degree; covariant modules k[V,V_n]^G by n
        self._alg = _Graded({}, [])
        one = _Gen(0, (0,) * self.m, Polynomial.constant(vspec, 1))
        self._coinv = _Graded({0: 1}, [one])
        self._gamma = None  # known once coinvariants hit zero
        self._cov = {}

    # -- pieces ---------------------------------------------------------

    def _canonical_md(self, md):
        """(canonical multidegree, block permutation) under permutations of
        equal-size blocks; the permutation maps the canonical piece onto
        this one (block t reads from canonical block perm[t]).

        Within each block size the canonical degrees descend, and blocks of
        equal degree keep their order (a stable sort).  Pieces in the same
        orbit are isomorphic as graded representations, so generator counts
        agree and generators transport by relabeling; only canonical pieces
        are computed directly.
        """
        cached = self._canon.get(md)
        if cached is not None:
            return cached
        canon = list(md)
        perm = list(range(self.m))
        for size in set(self.vspec.blocks):
            slots = [i for i, n in enumerate(self.vspec.blocks) if n == size]
            for slot, t in zip(slots, sorted(slots, key=lambda i: -md[i])):
                canon[slot] = md[t]
                perm[t] = slot
        result = (tuple(canon), perm)
        self._canon[md] = result
        return result

    def _chains(self, md) -> chains.PieceChains:
        if md not in self._pieces:
            self._pieces[md] = chains.PieceChains(self.vspec, md)
        return self._pieces[md]

    # -- spans of lower-degree products ---------------------------------

    def _span_rows(self, md, d, gens, k):
        """(generator, q-multidegree, basis, product rows) for each of gens
        that fits inside the degree-d piece md: g times a basis of the
        weight <= k part of piece md - md(g).  With k = 1 that part is A,
        taken in positive degree only (g below degree d).  Where it is the
        whole piece, the basis is the monomials (None) and the products
        are the multiplication map itself."""
        target = self._chains(md).index
        out = []
        for g in gens:
            if k == 1 and g.degree >= d:
                continue
            qmd = tuple(a - b for a, b in zip(md, g.multidegree))
            if any(q < 0 for q in qmd):
                continue
            pc = self._chains(qmd)
            basis = None if pc.dim_weight_le(k) == pc.index.size else pc.weight_le_matrix(k)
            if g.degree == 0 and basis is not None:  # a nonzero constant c: c * basis
                prod = asmod(basis.astype(np.int64) * next(iter(g.poly.terms.values())), self.p)
            else:
                mult = chains.multiplication_map(g.poly, pc.index, target).T
                prod = mult if basis is None else _mm(basis, mult, self.p)
            out.append((g, qmd, basis, prod))
        return out

    # -- one graded step ------------------------------------------------

    def _step(self, obj: _Graded, d, piece_gens):
        """Extend obj through degree d.  piece_gens(md) returns the new
        minimal generators of a canonical piece; every other piece gets
        relabeled copies from its canonical piece.

        Generators are appended canonical pieces first, in _compositions
        order, then the copies: witnesses and the echelon pivot choices of
        later degrees depend on this order.
        """
        mds = list(_compositions(d, self.m))
        produced = {}  # canonical md -> new generator polynomials
        for md in mds:
            if self._canonical_md(md)[0] == md:
                produced[md] = piece_gens(md)
                obj.gens.extend(_Gen(d, md, f) for f in produced[md])
        count = 0
        for md in mds:
            canon, perm = self._canonical_md(md)
            count += len(produced[canon])
            if canon != md:
                obj.gens.extend(
                    _Gen(d, md, _permute_poly(f, perm)) for f in produced[canon]
                )
        obj.counts[d] = count
        obj.done = d

    def _covariant_piece(self, md, d, n, gens, k):
        """Weight <= n elements of piece md outside (A_+M)_md, the span of
        ``_span_rows(md, d, gens, k)``: new minimal generators of M.

        With n = k = 1 and the algebra generators these are the new minimal
        algebra generators (the weight <= 1 elements are the invariants);
        with n = k = p and the algebra generators, monomial lifts of a
        coinvariant basis.
        """
        pc = self._chains(md)
        size = pc.index.size
        dim_m = pc.dim_weight_le(n)
        empty = np.zeros((0, size), _dtype(self.p))
        # keep no bases or row blocks alive through the elimination
        rows = np.concatenate([empty] + [r for *_, r in self._span_rows(md, d, gens, k)])
        ech = Echelon(self.p, size)
        if dim_m == size:
            # full piece: a row with a single nonzero entry puts that unit
            # vector in the span, so its column is cleared from every row;
            # the monomials off those columns and the pivots are generators
            marked = np.zeros(size, dtype=bool)
            while True:
                rows[:, marked] = 0
                nnz = np.count_nonzero(rows, axis=1)
                single = nnz == 1
                marked[(rows[single] != 0).argmax(axis=1)] = True
                rows = rows[nnz > 1]
                if not single.any():
                    break
            ech.add_rows(rows)
            marked[ech.pivcols] = True
            return [
                Polynomial.from_monomial(self.vspec, [int(e) for e in pc.index.exps[i]])
                for i in np.flatnonzero(~marked)
            ]
        # one bulk insertion: the recursive rref is much cheaper than
        # reducing many small batches against a growing basis
        ech.add_rows(rows)
        rank = ech.rank
        assert rank <= dim_m
        if rank == dim_m:
            return []
        # the rref of M_md at the pivots the span lacks: a canonical complement
        in_span = np.zeros(size, dtype=bool)
        in_span[ech.pivcols] = True
        ech.add_rows(pc.weight_le_matrix(n))
        new = ech.rows[~in_span[ech.pivcols]]
        assert len(new) == dim_m - rank
        return [pc.index.vector_to_poly(row) for row in new]

    def ensure_algebra(self, through=0):
        """Advance the algebra/coinvariant computation until gamma is known and
        the certified algebra cap (and degree ``through``) is covered."""
        # certified for the reduced part of V: trivial blocks do not change the coinvariants
        bound = formulas.coinvariant_top_degree_bound(formulas.reduce_V(self.vspec)[0])
        while self._gamma is None or self._alg.done < max(through, self.algebra_cap()):
            d = self._alg.done + 1
            alg = self._alg.gens
            self._step(self._alg, d, lambda md: self._covariant_piece(md, d, 1, alg, 1))
            if self._gamma is None:
                # k[V] is k[V,V_p]^G, and A_+ k[V] is the sum of g * k[V]
                p = self.p
                self._step(self._coinv, d, lambda md: self._covariant_piece(md, d, p, alg, p))
                zero = self._coinv.counts[d] == 0
                if zero or d >= bound:
                    # zero: gamma is d - 1; still nonzero at the certified
                    # top-degree bound: the bound pins gamma exactly, no need
                    # to watch the coinvariants vanish one degree later
                    self._gamma = d - 1 if zero else d

    @property
    def gamma(self) -> int:
        if self._gamma is None:
            self.ensure_algebra()
        return self._gamma

    def algebra_cap(self) -> int:
        return max(self.p, self.m * self.p - self.vspec.dim, self.gamma)

    def covariant_cap(self) -> int:
        return max(self.gamma, self.m * self.p - self.vspec.dim)

    # -- covariant modules ----------------------------------------------

    def ensure_covariant(self, n: int, through=0):
        """Generator counts for k[V,V_n]^G through max(certified cap, through)."""
        need = max(self.covariant_cap(), through)
        if n == 1 or n >= self.p:
            # weight <= 1 cuts out A itself (generated by 1); weight <= p
            # is no constraint at all, so the module is k[V] and its record
            # is the coinvariants' (they vanish above gamma)
            self._cov[n] = _Graded({0: 1}, self._coinv.gens[:1], need) if n == 1 else self._coinv
            return
        obj = self._cov.setdefault(n, _Graded({0: 1}, self._coinv.gens[:1]))
        for d in range(obj.done + 1, need + 1):
            self._step(obj, d, lambda md: self._covariant_piece(md, d, n, obj.gens, 1))


@lru_cache(maxsize=1)
def _engine(vspec: ModuleSpec) -> GradedEngine:
    """Single-slot engine cache: chain bases are large, so only the engine
    for the most recent V is retained (sweeps iterate W innermost)."""
    return GradedEngine(vspec)


def _report(target, obj: _Graded, cap, certificate):
    """BetaReport of obj through the certified cap (a count obj lacks is 0);
    the witness of each degree is its first generator in discovery order."""
    kept = {d: obj.counts.get(d, 0) for d in range(min(obj.counts), cap + 1)}
    nonzero = [d for d, c in kept.items() if c]
    witnesses = {}
    for g in obj.gens:
        if g.degree <= cap:
            witnesses.setdefault(g.degree, g.poly)
    return BetaReport(
        target=target,
        generator_counts=kept,
        beta=max(nonzero) if nonzero else 0,
        cap_used=cap,
        cap_certificate=certificate,
        witnesses=witnesses,
    )


def coinvariants_dims(vspec: ModuleSpec):
    """dim (k[V]/A_+ k[V])_d for d = 0 .. gamma (all nonzero; the dimension
    is zero in every higher degree because k[V] is generated in degree 1)."""
    eng = _engine(vspec)
    return [eng._coinv.counts[d] for d in range(eng.gamma + 1)]


def gamma(vspec: ModuleSpec) -> int:
    """Top degree of the coinvariants = beta(k[V], k[V]^G)."""
    return _engine(vspec).gamma


def module_generators(vspec: ModuleSpec):
    """Monomials generating k[V] as a module over k[V]^G (lifts of a
    coinvariant basis), in increasing degree; starts with 1."""
    eng = _engine(vspec)
    eng.ensure_algebra()
    return [g.poly for g in eng._coinv.gens]


def polynomial_module_beta(vspec: ModuleSpec) -> BetaReport:
    """Minimal generators of k[V] over k[V]^G; counts = coinvariant dims."""
    eng = _engine(vspec)
    g = eng.gamma
    cert = f"coinvariants vanish above degree gamma = {g}"
    return _report("polynomial-module", eng._coinv, g, cert)


def algebra_beta(vspec: ModuleSpec) -> BetaReport:
    """Minimal generator degrees of the invariant algebra k[V]^G.

    The certified cap is max(p, m*p - dim V, gamma): norms have degree p,
    non-norm non-transfer generators are bounded by m*p - dim V, and the
    transfer ideal is generated in degrees <= gamma by A-linearity.
    """
    eng = _engine(vspec)
    cap = eng.algebra_cap()
    eng.ensure_algebra()
    cert = (
        f"max(p = {eng.p}, m*p - dim(V) = {eng.m * eng.p - vspec.dim}, "
        f"gamma = {eng.gamma}) = {cap}"
    )
    return _report("algebra", eng._alg, cap, cert)


def covariant_beta(vspec: ModuleSpec, wspec: ModuleSpec) -> BetaReport:
    """Minimal generator degrees of k[V, V_n]^G over k[V]^G.

    W must be indecomposable (a single block).  The degree-0 generator w_1
    is counted, so W = V_1 gives beta 0.  The certified cap is
    max(gamma, m*p - dim V).
    """
    if wspec.num_blocks != 1:
        raise ValueError("W must be indecomposable (a single block)")
    if wspec.p != vspec.p:
        raise ValueError("V and W must share the same prime")
    n = wspec.blocks[0]
    eng = _engine(vspec)
    cap = eng.covariant_cap()
    eng.ensure_covariant(n)
    cert = (
        f"max(gamma = {eng.gamma}, m*p - dim(V) = "
        f"{eng.m * eng.p - vspec.dim}) = {cap}"
    )
    return _report("covariant-module", eng._cov[n], cap, cert)


def span_coefficients(f: Polynomial, gens):
    """{g: q_g} with f = sum_g q_g * g and q_g invariant, over the nonzero
    gens g of degree below deg f (unused g left out), or None when f is not
    in their span.  f must be homogeneous and those gens multihomogeneous;
    each multihomogeneous piece of f is solved against its product rows."""
    if f.is_zero():
        return {}
    if not f.is_homogeneous():
        raise ValueError("input must be homogeneous")
    eng = _engine(f.vspec)
    d = f.total_degree()
    lower = [_Gen(g.total_degree(), g.multidegree(), g) for g in gens
             if not g.is_zero() and g.total_degree() < d]
    qs = {}
    for md, comp in f.multihomogeneous_components().items():
        index = eng._chains(md).index
        parts = eng._span_rows(md, d, lower, 1)
        rows = np.concatenate([np.zeros((0, index.size), _dtype(eng.p))] + [r for *_, r in parts])
        x = solve_mod(rows, index.poly_to_vector(comp), eng.p)
        if x is None:
            return None
        off = 0
        for g, qmd, basis, prod in parts:
            coef = x[off : off + prod.shape[0]]
            off += prod.shape[0]
            if coef.any():
                vec = coef if basis is None else _mm(coef[None, :], basis, eng.p)[0]
                q = eng._chains(qmd).index.vector_to_poly(vec)
                qs[g.poly] = qs[g.poly] + q if g.poly in qs else q
    return qs


def is_decomposable_invariant(f: Polynomial, lower_gens=None) -> bool:
    """Is f in the subalgebra generated by invariants of smaller degree?

    ``lower_gens`` may list polynomials that generate k[V]^G in degrees
    below deg f (only their positive-degree members below deg f are used);
    by default the minimal algebra generators are computed.
    """
    if f.is_zero():
        return True
    if not f.is_homogeneous():
        raise ValueError("input must be homogeneous")
    if lower_gens is None:
        eng = _engine(f.vspec)
        eng.ensure_algebra(through=f.total_degree())
        lower_gens = [g.poly for g in eng._alg.gens]
    # a constant would put all of k[V]^G_d in the span: positive degrees only
    return span_coefficients(f, [g for g in lower_gens if g.total_degree()]) is not None


def is_decomposable_covariant(h) -> bool:
    """Is h in the submodule generated by covariants of smaller degree?"""
    if h.is_zero():
        return True
    if not h.f1.is_homogeneous():
        raise ValueError("input must be homogeneous")
    eng = _engine(h.vspec)
    eng.ensure_covariant(h.n, through=h.f1.total_degree())
    return span_coefficients(h.f1, [g.poly for g in eng._cov[h.n].gens]) is not None
