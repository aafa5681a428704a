"""Closed-form Noether bounds.

These are the predicted values that the brute-force computations in
``generators`` are checked against: the case formulas for
beta(k[V]^G) of a reduced V, the covariant bound (which equals the
invariant one for V = V_2 and V = 2V_2), and the coinvariant top-degree
bounds.
"""

from __future__ import annotations

from .modules import ModuleSpec

# case labels for beta_invariants_formula / beta_covariants_formula
W_TRIVIAL = "W-trivial"
V2_EXCEPTION = "V2-exception"
SOME_BLOCK_GT_3 = "some-block-gt-3"
MAX_BLOCK_3 = "max-block-3"
ALL_BLOCKS_2_M1 = "all-blocks-2-m1"
ALL_BLOCKS_2_M2 = "all-blocks-2-m2"
ALL_BLOCKS_2_MGE2 = "all-blocks-2-mge2"


def reduce_V(vspec: ModuleSpec):
    """Strip trivial (size-1) blocks; returns (reduced V, stripped count).

    Trivial summands change neither the invariant nor the covariant beta:
    k[V + V_1, W]^G = k[V, W]^G tensor k[V_1] with the extra variable an
    invariant of degree 1.
    """
    kept = [n for n in vspec.blocks if n > 1]
    stripped = len(vspec.blocks) - len(kept)
    if stripped == 0:
        return vspec, 0
    return ModuleSpec(vspec.field, kept), stripped


def beta_invariants_formula(vspec: ModuleSpec):
    """(beta(k[V]^G), case label) for a reduced V with block sizes <= p.

    Case split on the largest block: some block > 3 gives m(p-1)+(p-2);
    largest block exactly 3 gives m(p-1)+1; all blocks of size 2 give
    m(p-1) when m >= 3 and p when m <= 2.  The m <= 2 values are pinned
    by brute force: k[V_2]^G = k[x_2, N_1] and k[2V_2]^G is the
    hypersurface k[x_{2,1}, x_{2,2}, u, N_1, N_2] with top generator
    degree p (for p > 2 the transfers of degree up to 2(p-1) all
    decompose, e.g. Tr(x_{1,1}^2 x_{1,2}^2) = 2u^2 + 2x_{2,1}^2 x_{2,2}^2
    at p = 3).
    """
    if not vspec.is_reduced:
        raise ValueError("V must be reduced (no size-1 blocks)")
    if vspec.num_blocks == 0:
        raise ValueError("V must have at least one block")
    p = vspec.p
    m = vspec.num_blocks
    big = max(vspec.blocks)
    if big > 3:
        return m * (p - 1) + (p - 2), SOME_BLOCK_GT_3
    if big == 3:
        return m * (p - 1) + 1, MAX_BLOCK_3
    if m == 1:
        return p, ALL_BLOCKS_2_M1
    if m == 2:
        return p, ALL_BLOCKS_2_M2
    return m * (p - 1), ALL_BLOCKS_2_MGE2


def beta_covariants_formula(vspec: ModuleSpec, wspec: ModuleSpec):
    """(beta(k[V,W]^G over k[V]^G), case label); W may be decomposable.

    V is reduced first and trivial W-summands are dropped (each is
    generated by w_1 in degree 0).  If nothing of W remains the value is
    0; if the reduced V is a single V_2 the value is max(dim W_i - 1)
    over the remaining summands; if V = mV_2 with m >= 2 the value is
    m(p-1) (the module needs a top transfer generator even though the
    invariant algebra itself is generated in degree p when m = 2);
    otherwise the value is the invariant formula, independent of W.
    """
    if wspec.p != vspec.p:
        raise ValueError("V and W must share the same prime")
    vred, _ = reduce_V(vspec)
    w_sizes = [n for n in wspec.blocks if n > 1]
    if not w_sizes:
        return 0, W_TRIVIAL
    if vred.num_blocks == 0:
        raise ValueError("V must have at least one block of size > 1")
    if vred.blocks == (2,):
        return max(w_sizes) - 1, V2_EXCEPTION
    if max(vred.blocks) == 2:
        return vred.num_blocks * (vred.p - 1), ALL_BLOCKS_2_MGE2
    return beta_invariants_formula(vred)


def coinvariant_top_degree_bound(vspec: ModuleSpec) -> int:
    """Tightest known upper bound for the top degree of k[V]/A_+ k[V]
    (that is, for gamma), by block profile of the reduced V."""
    if not vspec.is_reduced:
        raise ValueError("V must be reduced (no size-1 blocks)")
    p = vspec.p
    m = vspec.num_blocks
    big = max(vspec.blocks) if vspec.blocks else 0
    if big <= 2:
        return m * (p - 1)
    if big == 3:
        return m * (p - 1) + 1
    return m * (p - 1) + (p - 2)
