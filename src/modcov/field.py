"""Arithmetic in the prime field F_p and dense linear algebra over it.

Matrices are small and dense at this layer; everything is exact, with
entries stored as canonical residues in [0, p).  The package computes
with the numpy-backed ``fastlinalg``; the dense linear algebra here is the
reference the tests cross-check it against.
"""

from __future__ import annotations

from dataclasses import dataclass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field F_p.  p must be prime (any prime below 2**15 is supported)."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.p >= 1 << 15:
            raise ValueError(f"p={self.p} too large (need p < 2^15)")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)


class FpMatrix:
    """Dense row-major matrix over F_p."""

    def __init__(self, field: PrimeField, rows: int, cols: int, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.entries = [0] * (rows * cols)
        else:
            if len(entries) != rows * cols:
                raise ValueError("entries length must be rows*cols")
            self.entries = [e % field.p for e in entries]

    @classmethod
    def from_rows(cls, field: PrimeField, row_lists) -> "FpMatrix":
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        flat = []
        for r in row_lists:
            if len(r) != cols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(field, rows, cols, flat)

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FpMatrix":
        m = cls(field, n, n)
        for i in range(n):
            m.entries[i * n + i] = 1
        return m

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.cols + c]

    def __setitem__(self, rc, v):
        r, c = rc
        self.entries[r * self.cols + c] = v % self.field.p

    def row(self, r: int) -> list:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def copy(self) -> "FpMatrix":
        return FpMatrix(self.field, self.rows, self.cols, list(self.entries))

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def mul_vector(self, v: list) -> list:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        p = self.field.p
        out = []
        for r in range(self.rows):
            base = r * self.cols
            out.append(sum(self.entries[base + c] * v[c] for c in range(self.cols)) % p)
        return out

    def matmul(self, other: "FpMatrix") -> "FpMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        p = self.field.p
        out = FpMatrix(self.field, self.rows, other.cols)
        for r in range(self.rows):
            arow = self.row(r)
            for c in range(other.cols):
                out.entries[r * other.cols + c] = (
                    sum(arow[k] * other.entries[k * other.cols + c] for k in range(self.cols)) % p
                )
        return out

    def __repr__(self):
        return f"FpMatrix(p={self.field.p}, {self.rows}x{self.cols})"


def rref(m: FpMatrix):
    """Reduced row echelon form.

    Returns (R, pivots, rank) where pivots lists pivot column indices in
    increasing order.
    """
    p = m.field.p
    r = m.copy()
    pivots = []
    pr = 0  # next pivot row
    for c in range(m.cols):
        # find a pivot in column c at row >= pr
        pivot = None
        for i in range(pr, m.rows):
            if r.entries[i * m.cols + c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != pr:
            for k in range(m.cols):
                a, b = r.entries[pr * m.cols + k], r.entries[pivot * m.cols + k]
                r.entries[pr * m.cols + k], r.entries[pivot * m.cols + k] = b, a
        inv = m.field.inv(r.entries[pr * m.cols + c])
        if inv != 1:
            for k in range(c, m.cols):
                r.entries[pr * m.cols + k] = (r.entries[pr * m.cols + k] * inv) % p
        for i in range(m.rows):
            if i == pr:
                continue
            f = r.entries[i * m.cols + c]
            if f:
                for k in range(c, m.cols):
                    r.entries[i * m.cols + k] = (
                        r.entries[i * m.cols + k] - f * r.entries[pr * m.cols + k]
                    ) % p
        pivots.append(c)
        pr += 1
        if pr == m.rows:
            break
    return r, pivots, pr


def kernel_basis(m: FpMatrix) -> list:
    """Basis of the right null space, as a list of length-cols vectors."""
    p = m.field.p
    r, pivots, rank = rref(m)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    basis = []
    for fc in free:
        v = [0] * m.cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-r.entries[i * m.cols + fc]) % p
        basis.append(v)
    return basis


def solve(m: FpMatrix, b: list):
    """Some x with Mx = b, or None if inconsistent.

    Free variables are set to 0 in rref coordinates, so the answer is
    deterministic.
    """
    if len(b) != m.rows:
        raise ValueError("dimension mismatch: len(b) != rows")
    p = m.field.p
    aug = FpMatrix(m.field, m.rows, m.cols + 1)
    for r in range(m.rows):
        aug.entries[r * (m.cols + 1) : r * (m.cols + 1) + m.cols] = m.row(r)
        aug.entries[r * (m.cols + 1) + m.cols] = b[r] % p
    red, pivots, rank = rref(aug)
    if m.cols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [0] * m.cols
    for i, pc in enumerate(pivots):
        x[pc] = red.entries[i * (m.cols + 1) + m.cols]
    return x
