"""kG-module calculus for G cyclic of prime order p.

A module is specified by its prime and its Jordan block sizes.  The
generator sigma acts on the basis w_1, ..., w_n of a single block by

    sigma(w_i) = sum_{j <= i} (-1)^(i-j) w_j,

the signed convention used for the target module W of a covariant.  The
complementary (unsigned, upper-triangular) convention on the variables of
k[V] lives in ``poly``; equivariance tests validate that the two
conventions are consistent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import PrimeField


@dataclass(frozen=True)
class ModuleSpec:
    """A kG-module: prime p and a list of Jordan block sizes."""

    field: PrimeField
    blocks: tuple

    def __init__(self, field: PrimeField, blocks):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "blocks", tuple(int(b) for b in blocks))
        for n in self.blocks:
            if not 1 <= n <= field.p:
                raise ValueError(
                    f"block size {n} invalid: only V_1..V_{field.p} exist at p={field.p}"
                )

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def dim(self) -> int:
        return sum(self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def is_reduced(self) -> bool:
        return all(n >= 2 for n in self.blocks)

    def __repr__(self):
        return f"ModuleSpec(p={self.p}, blocks={list(self.blocks)})"


def module_spec(p: int, blocks) -> ModuleSpec:
    return ModuleSpec(PrimeField(p), blocks)


def sigma_on_w(w: ModuleSpec, i: int) -> list:
    """Coefficient vector of sigma(w_i) in the basis w_1..w_n of a single block."""
    if w.num_blocks != 1:
        raise ValueError("sigma_on_w expects a single-block module")
    n = w.blocks[0]
    if not 1 <= i <= n:
        raise IndexError(f"basis index {i} out of range 1..{n}")
    p = w.p
    return [((-1) ** (i - j)) % p if j <= i else 0 for j in range(1, n + 1)]


def delta_on_w(w: ModuleSpec, i: int) -> list:
    """sigma(w_i) - w_i; zero for i = 1."""
    v = sigma_on_w(w, i)
    v[i - 1] = (v[i - 1] - 1) % w.p
    return v
