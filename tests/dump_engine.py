"""Print everything the beta engine computes for a fixed list of V's.

For each V: gamma, the coinvariant dimensions, the module generators,
every BetaReport field of the algebra, of k[V] over k[V]^G and of
k[V,V_n]^G for n = 1..p, and the algebra and covariant generators in
discovery order.  Two versions of the engine that print the same bytes
compute the same counts, caps, certificates, witnesses and generators.

    PYTHONPATH=src python tests/dump_engine.py | sha256sum

``test_generators.py::test_engine_dump_matches_recorded_hash`` compares
that hash with the recorded one.
"""

from __future__ import annotations

import sys

from modcov import generators
from modcov.modules import module_spec
from modcov.parsing import format_polynomial

CASES = [
    (2, (2, 2, 2)),
    (3, (2, 2)),
    (3, (3, 2)),
    (3, (3, 3)),
    (3, (2, 2, 2)),
    (3, (3, 3, 3)),
    (5, (3, 3)),
    (5, (3, 2)),
    (5, (4, 2)),
    (5, (5,)),
    (7, (2, 2)),
    # trivial summands: pieces of dimension 1 on which Delta vanishes
    (2, (2, 1, 1)),
    (3, (2, 1)),
    (5, (3, 1)),
]


def _report(rep, out):
    out.append(f"  target {rep.target}")
    out.append(f"  counts {sorted(rep.generator_counts.items())}")
    out.append(f"  beta {rep.beta} cap_used {rep.cap_used} certified {rep.certified}")
    out.append(f"  certificate {rep.cap_certificate}")
    for d, w in sorted(rep.witnesses.items()):
        out.append(f"  witness {d}: {format_polynomial(w)}")


def _gens(label, gens, out):
    for f in gens:
        out.append(f"  {label} {f.total_degree()} {f.multidegree()}: {format_polynomial(f)}")


def dump(p, blocks):
    v = module_spec(p, list(blocks))
    out = [f"V p={p} blocks={blocks}"]
    out.append(f"  gamma {generators.gamma(v)}")
    out.append(f"  coinvariant_dims {generators.coinvariants_dims(v)}")
    for f in generators.module_generators(v):
        out.append(f"  module_gen {format_polynomial(f)}")
    _report(generators.algebra_beta(v), out)
    _report(generators.polynomial_module_beta(v), out)
    for n in range(1, p + 1):
        _report(generators.covariant_beta(v, module_spec(p, [n])), out)
    eng = generators._engine(v)
    _gens("alg", eng._alg.gens, out)
    for n in sorted(eng._cov):
        _gens(f"cov{n}", eng._cov[n].gens, out)
    return out


def write_dump(out) -> None:
    """Write the dump of every case in CASES to the text stream ``out``."""
    for p, blocks in CASES:
        out.write("\n".join(dump(p, blocks)) + "\n")
        out.flush()


def main() -> int:
    write_dump(sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
