"""Print the structure results for the benchmark's seeded structure cases.

For seeds 1..10, the covariants of the ``structure`` benchmark workload
are drawn again (the same cases, the same draws from ``random.Random``)
and split: ``decompose_by_norm`` gives (h1, h2, u) and
``decompose_transfer_covariant`` the pairs (q_i, c_i).  Two versions of
modcov that print the same bytes compute the same splits.

    PYTHONPATH=src python tests/dump_structure.py | sha256sum

``test_covariants.py::test_structure_dump_matches_recorded_hash``
compares that hash with the recorded one.
"""

from __future__ import annotations

import random
import sys

from modcov import covariants, generators
from modcov.modules import module_spec
from modcov.parsing import format_polynomial
from modcov.poly import Polynomial, delta_power, graded_basis

SEEDS = range(1, 11)

# (p, V blocks, multidegree, n = dim W, j), as the workload's norm cases
NORM_CASES = [(5, (3, 2), (4, 3), 3, 1), (5, (4,), (6,), 3, 1)]

# (p, V blocks, degree, n = dim W, support s), as its transfer cases
TRANSFER_CASES = [(5, (2, 2), 9, 2, 2)]


def _random_poly(rng, vspec, mons):
    return Polynomial(vspec, {m: rng.randrange(vspec.p) for m in mons})


def _draw(rng, make, vspec, mons):
    """The first nonzero covariant ``make`` builds from a random polynomial."""
    h = None
    while h is None or h.is_zero():
        h = make(_random_poly(rng, vspec, mons))
    return h


def _covariant(label, h, out):
    out.append(f"  {label} " + "; ".join(format_polynomial(c) for c in h.components))


def dump(seed):
    rng = random.Random(seed)
    out = [f"seed {seed}"]
    for p, blocks, md, n, j in NORM_CASES:
        v, w = module_spec(p, list(blocks)), module_spec(p, [n])
        mons = graded_basis(v, multidegree=md)
        h = _draw(rng, lambda f: covariants.from_weight_poly(delta_power(f, p - n), w), v, mons)
        h1, h2, u = covariants.decompose_by_norm(h, j)
        out.append(f" norm p={p} V={blocks} md={md} W={n} j={j}")
        _covariant("h1", h1, out)
        _covariant("h2", h2, out)
        out.append(f"  u {format_polynomial(u)}")
    for p, blocks, d, n, s in TRANSFER_CASES:
        v, w = module_spec(p, list(blocks)), module_spec(p, [n])
        mons = graded_basis(v, d)
        h = _draw(rng, lambda f: covariants.make_transfer_covariant(f, w, s), v, mons)
        gens = generators.module_generators(v)
        pairs = covariants.decompose_transfer_covariant(h, gens, gamma=generators.gamma(v))
        out.append(f" transfer p={p} V={blocks} d={d} W={n} s={s}")
        for q, c in pairs:
            out.append(f"  q {format_polynomial(q)}")
            _covariant("c", c, out)
    return out


def write_dump(out) -> None:
    """Write the dump of every seed in SEEDS to the text stream ``out``."""
    for seed in SEEDS:
        out.write("\n".join(dump(seed)) + "\n")
        out.flush()


def main() -> int:
    write_dump(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
