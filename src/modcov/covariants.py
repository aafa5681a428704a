"""Covariants: G-fixed elements of k[V] (x) W, i.e. equivariant maps V -> W.

A nonzero covariant h = f_1 w_1 + ... + f_n w_n is determined by its first
component: f_j = Delta^(j-1)(f_1) and Delta^n(f_1) = 0, so f_1 is a
polynomial of weight at most n and every such polynomial yields a
covariant.  A ``Covariant`` therefore stores f_1 only and derives the
other components from it.
"""

from __future__ import annotations

from .generators import span_coefficients
from .modules import ModuleSpec
from .poly import (
    Polynomial,
    delta,
    delta_power,
    delta_power_preimage,
    divide_by_norm,
    norm,
    weight,
)


class ChainError(ValueError):
    """Components do not form the Delta-chain of their first entry."""


class NormDecompositionError(RuntimeError):
    """A linear solve that the norm-splitting hypothesis guarantees has failed."""


class Covariant:
    """f_1 w_1 + ... + f_n w_n against the W-basis w_1..w_n, stored as f_1."""

    __slots__ = ("vspec", "wspec", "f1")

    def __init__(self, vspec: ModuleSpec, wspec: ModuleSpec, components):
        """Validating constructor; missing trailing components are zero."""
        comps = list(components)
        self._init(vspec, wspec, comps[0] if comps else Polynomial.zero(vspec))
        if len(comps) > self.n:
            raise ValueError("more components than dim W")
        chain = self._chain(self.n)
        for j, g in enumerate(chain[1 : self.n], start=1):
            if g != (comps[j] if j < len(comps) else Polynomial.zero(vspec)):
                raise ChainError(f"component {j + 1} is not Delta^{j} of component 1")
        if not chain[self.n].is_zero():
            raise ChainError(f"Delta^{self.n} of component 1 is nonzero")

    def _init(self, vspec, wspec, f1):
        if wspec.num_blocks != 1:
            raise ValueError("W must be a single block at this layer")
        self.vspec, self.wspec, self.f1 = vspec, wspec, f1

    @property
    def n(self) -> int:
        return self.wspec.blocks[0]

    def _chain(self, k: int) -> list:
        """[f_1, Delta f_1, ..., Delta^k f_1]."""
        chain = [self.f1]
        for _ in range(k):
            chain.append(delta(chain[-1]))
        return chain

    @property
    def components(self) -> tuple:
        """(f_1, Delta f_1, ..., Delta^(n-1) f_1)."""
        return tuple(self._chain(self.n - 1))

    def is_zero(self) -> bool:
        return self.f1.is_zero()

    def support(self) -> int:
        """Largest j with f_j != 0, i.e. weight(f_1); 0 for the zero covariant."""
        return 0 if self.is_zero() else weight(self.f1)

    def validate_chain(self):
        if not delta_power(self.f1, self.n).is_zero():
            raise ChainError(f"Delta^{self.n} of component 1 is nonzero")

    def multidegree(self):
        """Multidegree of f_1 (all components share it)."""
        return None if self.is_zero() else self.f1.multidegree()

    def total_degree(self):
        return None if self.is_zero() else self.f1.total_degree()

    def __add__(self, other):
        self._check(other)
        return _covariant(self.f1 + other.f1, self.wspec)

    def __sub__(self, other):
        self._check(other)
        return _covariant(self.f1 - other.f1, self.wspec)

    def scale_by_invariant(self, q: Polynomial) -> "Covariant":
        """q * h for an invariant q (Delta is linear over invariants)."""
        return _covariant(q * self.f1, self.wspec)

    def __eq__(self, other):
        return (
            isinstance(other, Covariant)
            and self.vspec == other.vspec
            and self.wspec == other.wspec
            and self.f1 == other.f1
        )

    def _check(self, other):
        if self.vspec != other.vspec or self.wspec != other.wspec:
            raise ValueError("covariants live over different (V, W)")

    def __repr__(self):
        from .parsing import format_polynomial

        return "Covariant[" + "; ".join(format_polynomial(c) for c in self.components) + "]"


def _covariant(f1: Polynomial, wspec: ModuleSpec) -> Covariant:
    """The covariant with weight polynomial f1; the caller ensures weight(f1) <= n."""
    h = Covariant.__new__(Covariant)
    h._init(f1.vspec, wspec, f1)
    return h


def zero_covariant(vspec: ModuleSpec, wspec: ModuleSpec) -> Covariant:
    return _covariant(Polynomial.zero(vspec), wspec)


def from_weight_poly(f: Polynomial, wspec: ModuleSpec) -> Covariant:
    """The covariant (f, Delta f, ..., Delta^(n-1) f); requires weight(f) <= n."""
    _checked_weight(f, wspec)
    return _covariant(f, wspec)


def _checked_weight(f: Polynomial, wspec: ModuleSpec) -> int:
    """weight(f), 0 for f = 0; raises ValueError if it exceeds dim W."""
    w = 0 if f.is_zero() else weight(f)
    if w > wspec.blocks[0]:
        raise ValueError(f"weight {w} exceeds dim W = {wspec.blocks[0]}")
    return w


def make_transfer_covariant(f: Polynomial, wspec: ModuleSpec, s: int) -> Covariant:
    """Components (Delta^(p-s) f, ..., Delta^(p-1) f, 0, ..., 0)."""
    p = f.vspec.p
    n = wspec.blocks[0]
    if not 1 <= s <= n:
        raise ValueError(f"support size {s} out of range 1..{n}")
    if s > p:
        raise ValueError(f"support size {s} exceeds p = {p}")
    return _covariant(delta_power(f, p - s), wspec)


def transfer_witness(h: Covariant):
    """A polynomial u whose Delta-chain ending at Delta^(p-1)(u) gives h, or None.

    u is a preimage of f_1 under Delta^(p-s), s = support(h): f_1's chain
    coordinates shifted up p - s levels.  The rest of the chain follows.
    """
    if h.is_zero():
        raise ValueError("the zero covariant is excluded")
    return delta_power_preimage(h.f1, h.vspec.p - h.support())


def decompose_by_norm(h: Covariant, j: int):
    """Split h = N_j * h1 + h2 with h2 a transfer covariant, returning (h1, h2, u).

    Requires 1 <= j <= m and h multihomogeneous of multidegree (d_1..d_m)
    with d_j > p - n_j; raises ValueError otherwise.
    h1 and h2 are the componentwise quotient and remainder of dividing h by
    N_j.  sigma never raises the x_{1,j}-degree of a term and N_j is
    invariant, so f -> (quotient, remainder) commutes with sigma: dividing
    the weight polynomial f_1 = q * N_j + r gives one covariant from q and
    one from r.  Under the hypothesis the remainders of this multidegree
    form a free kG-module, so r = Delta^(p-s)(u) with s = weight(r), and h2
    is the Delta-chain of u ending at Delta^(p-1)(u).
    """
    vspec, wspec = h.vspec, h.wspec
    p = vspec.p
    if not 1 <= j <= vspec.num_blocks:
        raise ValueError(f"block index {j} out of range 1..{vspec.num_blocks}")
    if h.is_zero():
        z = zero_covariant(vspec, wspec)
        return z, z, Polynomial.zero(vspec)
    md = h.multidegree()
    nj = vspec.blocks[j - 1]
    if md[j - 1] <= p - nj:
        raise ValueError(
            f"multidegree {md} violates the hypothesis d_{j} > p - n_{j} = {p - nj}"
        )
    q, r = divide_by_norm(h.f1, j)
    h1 = from_weight_poly(q, wspec)
    s = _checked_weight(r, wspec)  # support(h2), computed once
    h2 = _covariant(r, wspec)
    u = Polynomial.zero(vspec) if r.is_zero() else delta_power_preimage(r, p - s)
    if u is None:
        raise NormDecompositionError(
            "remainder is not a transfer; the freeness guarantee for the "
            f"degree-{md[j - 1]} component failed (violated precondition or bug)"
        )
    if h != h1.scale_by_invariant(norm(vspec, j)) + h2:
        raise NormDecompositionError("reconstruction check failed")
    return h1, h2, u


def decompose_transfer_covariant(h: Covariant, module_gens, witness=None, gamma=None):
    """Write a transfer covariant of degree > gamma as sum q_i * c_i.

    ``module_gens`` must be multihomogeneous and generate k[V] as a module
    over k[V]^G up to the degree of the witness.  Returns a list of
    (q_i, c_i) pairs with each q_i an invariant of positive degree and each
    c_i a covariant of degree < deg(h), reconstructing h exactly.
    """
    if h.is_zero():
        raise ValueError("the zero covariant is excluded")
    d = h.total_degree()
    if gamma is not None and d <= gamma:
        raise ValueError(f"degree {d} is not above gamma = {gamma}")
    wspec, s = h.wspec, h.support()
    if witness is None:
        witness = transfer_witness(h)
        if witness is None:
            raise ValueError("h is not a transfer covariant")
    qs = span_coefficients(witness, module_gens)
    if qs is None:
        raise ValueError(
            "witness could not be expressed over module_gens; "
            "generators are incomplete or degree <= gamma"
        )
    pairs = []
    recon = zero_covariant(h.vspec, wspec)
    for g, q in qs.items():
        c = make_transfer_covariant(g, wspec, s)
        if c.is_zero():
            continue
        pairs.append((q, c))
        recon = recon + c.scale_by_invariant(q)
    if recon != h:
        raise ValueError("reconstruction failed; witness chain mismatch")
    return pairs
