"""The benchmark's workloads: cases, seeded inputs, ops and their checks.

An op is one user-visible request: a call sequence into modcov's public
API whose result is checked from outside.  ``run`` is timed; ``check``
is not, and returns a list of problems (empty when the result is right).
A fast wrong answer is therefore a failed op, not a fast op.

The seed fixes the inputs.  For ``gamma-1block`` and ``cov-allw`` the
cases are fixed (their results are pinned by ``fingerprints.json``) and
the seed orders them, so every seed does the same work.  For
``structure`` the seed draws the polynomials the covariants are built
from; every coefficient of the piece is drawn, so the work per op does
not depend on the draw.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from modcov import cli, covariants, formulas, generators
from modcov.modules import module_spec
from modcov.poly import Polynomial, delta, delta_power, graded_basis, norm

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

# (p, V blocks).  p=7 V_4 (6 s alone) is left out so that a run holds
# several repetitions; p=5 V_5 has the same nilpotent-chain profile.
GAMMA_CASES = [(5, (5,)), (11, (3,)), (13, (3,))]

# (p, V blocks); every W = V_1..V_p is run for each.  The large-p pair
# spends its time in span elimination, the many-block ones in
# multiplication maps and tensor folds.
COV_CASES = [(5, (3, 3)), (3, (3, 3, 3)), (5, (3, 2)), (7, (2, 2))]

# One op per case keeps a repetition short, so a run holds enough
# repetitions for a steady median.
# decompose_by_norm: (p, V blocks, multidegree, n = dim W, j)
NORM_CASES = [(5, (3, 2), (4, 3), 3, 1), (5, (4,), (6,), 3, 1)]

# decompose_transfer_covariant: (p, V blocks, degree > gamma, n = dim W,
# support s)
TRANSFER_CASES = [(5, (2, 2), 9, 2, 2)]

WORKLOADS = ("gamma-1block", "cov-allw", "structure")


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], list]
    # fingerprint of a result, for ops whose result is pinned in the file
    fingerprint: Callable[[object], dict] | None = None


def _blocks_str(blocks):
    return ",".join(str(n) for n in blocks)


# -- gamma-1block ---------------------------------------------------------


def gamma_op(p, blocks) -> Op:
    v = module_spec(p, blocks)

    def run():
        g = generators.gamma(v)
        dims = generators.coinvariants_dims(v)
        rep = generators.algebra_beta(v)
        return g, dims, rep

    def fingerprint(result):
        g, dims, rep = result
        return {
            "gamma": g,
            "coinvariant_dims": list(dims),
            "generator_counts": {str(d): c for d, c in sorted(rep.generator_counts.items())},
            "beta": rep.beta,
            "cap_used": rep.cap_used,
            "certified": rep.certified,
        }

    def check(result):
        g, dims, rep = result
        problems = []
        beta_f, label = formulas.beta_invariants_formula(v)
        if rep.beta != beta_f:
            problems.append(f"beta {rep.beta} != formula {beta_f} ({label})")
        bound = formulas.coinvariant_top_degree_bound(v)
        if g > bound:
            problems.append(f"gamma {g} > coinvariant_top_degree_bound {bound}")
        if len(dims) != g + 1 or min(dims) <= 0:
            problems.append(f"coinvariant dims {dims} do not end at gamma {g}")
        if not rep.certified:
            problems.append("algebra beta is not certified")
        return problems

    return Op(f"gamma-1block|p={p}|V={_blocks_str(blocks)}", run, check, fingerprint)


# -- cov-allw -------------------------------------------------------------


def cov_op(p, blocks, n) -> Op:
    argv = ["beta", "--p", str(p), "--v", _blocks_str(blocks), "--w", str(n), "--mode", "both"]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def fingerprint(result):
        _, out = result
        entry = json.loads(out)
        counts = {}
        for d in entry["generator_degrees"]:
            counts[str(d)] = counts.get(str(d), 0) + 1
        return {
            "beta": entry["beta_computed"],
            "generator_counts": counts,
            "cap_used": entry["cap_used"],
            # names gamma and m*p - dim V, the two terms of the cap
            "cap_certificate": entry["cap_certificate"],
            "certified": entry["status"] == "ok",
        }

    def check(result):
        rc, out = result
        if rc != 0:
            return [f"modcov {' '.join(argv)} exited {rc}"]
        entry = json.loads(out)
        problems = []
        beta_f, label = formulas.beta_covariants_formula(
            module_spec(p, blocks), module_spec(p, [n])
        )
        if entry["beta_computed"] != beta_f:
            problems.append(f"beta {entry['beta_computed']} != formula {beta_f} ({label})")
        if entry["agree"] is not True:
            problems.append("CLI reports disagreement")
        if entry["status"] != "ok":
            problems.append(f"status {entry['status']!r}")
        return problems

    key = f"cov-allw|p={p}|V={_blocks_str(blocks)}|W={n}"
    return Op(key, run, check, fingerprint)


# -- structure ------------------------------------------------------------


def _random_poly(rng, vspec, mons):
    return Polynomial(vspec, {m: rng.randrange(vspec.p) for m in mons})


def norm_op(rng, p, blocks, md, n, j) -> Op:
    v, w = module_spec(p, blocks), module_spec(p, [n])
    mons = graded_basis(v, multidegree=md)
    h = None
    while h is None or h.is_zero():
        # Delta^(p-n) of anything has weight <= n: a covariant into V_n
        h = covariants.from_weight_poly(delta_power(_random_poly(rng, v, mons), p - n), w)

    def run():
        return covariants.decompose_by_norm(h, j)

    def check(result):
        h1, h2, _ = result
        problems = []
        if h1.scale_by_invariant(norm(v, j)) + h2 != h:
            problems.append("h != N_j*h1 + h2")
        try:
            h1.validate_chain()
        except covariants.ChainError as exc:
            problems.append(f"h1 is not a covariant: {exc}")
        if not h2.is_zero():
            u = covariants.transfer_witness(h2)
            if u is None:
                problems.append("h2 has no transfer witness")
            elif covariants.make_transfer_covariant(u, w, h2.support()) != h2:
                problems.append("transfer witness does not rebuild h2")
        return problems

    key = f"structure|norm|p={p}|V={_blocks_str(blocks)}|md={md}|W={n}|j={j}"
    return Op(key, run, check)


def transfer_op(rng, p, blocks, d, n, s) -> Op:
    v, w = module_spec(p, blocks), module_spec(p, [n])
    mons = graded_basis(v, d)
    h = None
    while h is None or h.is_zero():
        h = covariants.make_transfer_covariant(_random_poly(rng, v, mons), w, s)

    def run():
        gens = generators.module_generators(v)
        return covariants.decompose_transfer_covariant(h, gens, gamma=generators.gamma(v))

    def check(pairs):
        problems = []
        recon = covariants.zero_covariant(v, w)
        for q, c in pairs:
            if q.is_zero() or not delta(q).is_zero() or q.total_degree() <= 0:
                problems.append("a coefficient q_i is not a positive-degree invariant")
            if c.total_degree() >= d:
                problems.append(f"a covariant c_i has degree {c.total_degree()} >= {d}")
            recon = recon + c.scale_by_invariant(q)
        if recon != h:
            problems.append("sum q_i*c_i != h")
        return problems

    key = f"structure|transfer|p={p}|V={_blocks_str(blocks)}|d={d}|W={n}|s={s}"
    return Op(key, run, check)


# -- assembly -------------------------------------------------------------


def make_ops(workload: str, seed: int) -> list:
    """The ops of one repetition, in run order; same seed, same ops."""
    rng = random.Random(seed)
    if workload == "gamma-1block":
        cases = list(GAMMA_CASES)
        rng.shuffle(cases)
        return [gamma_op(p, blocks) for p, blocks in cases]
    if workload == "cov-allw":
        # W innermost with the engine reused, as ``modcov sweep`` does
        cases = list(COV_CASES)
        rng.shuffle(cases)
        ops = []
        for p, blocks in cases:
            ws = list(range(1, p + 1))
            rng.shuffle(ws)
            ops.extend(cov_op(p, blocks, n) for n in ws)
        return ops
    if workload == "structure":
        ops = [norm_op(rng, *case) for case in NORM_CASES]
        ops.extend(transfer_op(rng, *case) for case in TRANSFER_CASES)
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def load_fingerprints() -> dict:
    with open(FINGERPRINTS) as fh:
        return json.load(fh)


def check_result(op: Op, result, fingerprints: dict) -> list:
    """Problems with one op's result: failed checks and fingerprint
    mismatches, as strings the caller counts rather than raises."""
    try:
        problems = op.check(result)
        if op.fingerprint is not None:
            expected = fingerprints.get(op.key)
            got = op.fingerprint(result)
            if expected is None:
                problems.append("no recorded fingerprint")
            elif got != expected:
                problems.append(f"fingerprint {got} != recorded {expected}")
    except Exception as exc:  # a result the checks cannot read is wrong
        return [f"check raised {type(exc).__name__}: {exc}"]
    return problems
