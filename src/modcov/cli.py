"""Command-line front end.

Subcommands:

  act        apply sigma / delta / delta^k / transfer / weight / norm
  beta       one (V, W) case: formula value, computed value, or both
  sweep      enumerate reduced-V cases, compare formula vs computation,
             write a JSON report (with a CSV mirror)
  decompose  split a covariant as h = N_j*h1 + h2 with h2 a transfer
             covariant (prints the parts and a transfer witness)

Every computed beta runs through its certified cap.  Exit codes: 0
success/agreement, 1 verified mismatch between formula and computation or
a failed split in decompose, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import re
import sys
import time

from . import covariants, formulas, generators
from .modules import ModuleSpec, module_spec
from .parsing import ParseError, format_polynomial, parse_polynomial
from .poly import _compositions, apply_sigma, delta, delta_power, norm, transfer, weight


class UsageError(Exception):
    pass


def _ints(text: str):
    try:
        values = [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        values = []
    if not values:
        raise UsageError(f"expected a comma-separated list of integers, got {text!r}")
    return values


def _vspec(p: int, blocks) -> ModuleSpec:
    try:
        return module_spec(p, blocks)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc))


# -- act ----------------------------------------------------------------


def cmd_act(args) -> int:
    vspec = _vspec(args.p, _ints(args.v))
    op = args.op.strip()
    try:
        f = parse_polynomial(args.expr, vspec)
    except ParseError as exc:
        raise UsageError(f"cannot parse expression: {exc}")
    m = re.fullmatch(r"norm\s+(\d+)", op)
    if m:
        j = int(m.group(1))
        if not 1 <= j <= vspec.num_blocks:
            raise UsageError(f"norm block index {j} out of range")
        print(format_polynomial(norm(vspec, j)))
        return 0
    m = re.fullmatch(r"delta\^(\d+)", op)
    if m:
        print(format_polynomial(delta_power(f, int(m.group(1)))))
        return 0
    if op == "sigma":
        print(format_polynomial(apply_sigma(f)))
    elif op == "delta":
        print(format_polynomial(delta(f)))
    elif op == "transfer":
        print(format_polynomial(transfer(f)))
    elif op == "weight":
        if f.is_zero():
            raise UsageError("the zero polynomial has no weight")
        print(weight(f))
    else:
        raise UsageError(
            f"unknown operator {op!r}; expected sigma, delta, delta^k, "
            "transfer, weight, or 'norm j'"
        )
    return 0


# -- beta and sweep -----------------------------------------------------


# report entry schema: JSON key order and CSV columns
_FIELDS = (
    "p", "v_blocks", "w_blocks", "status", "case_label", "beta_formula",
    "beta_computed", "generator_degrees", "cap_used", "cap_certificate",
    "agree", "elapsed_ms",
)


def _entry(p, v_blocks, w_blocks, status):
    """A report entry with every field of the schema, results unset."""
    entry = dict.fromkeys(_FIELDS)
    entry.update(p=p, v_blocks=list(v_blocks), w_blocks=list(w_blocks), status=status)
    return entry


def _case_result(p, v_blocks, w_blocks, mode):
    """One comparison entry of the report (beta/sweep share this)."""
    vspec = _vspec(p, v_blocks)
    wspec = _vspec(p, w_blocks)
    if max(vspec.blocks) == 1:
        raise UsageError("V needs a block of size > 1 (G acts trivially on V)")
    start = time.monotonic()
    entry = _entry(p, v_blocks, w_blocks, "ok")
    if mode in ("formula", "both"):
        value, label = formulas.beta_covariants_formula(vspec, wspec)
        entry["beta_formula"] = value
        entry["case_label"] = label
    if mode in ("compute", "both"):
        vred, _ = formulas.reduce_V(vspec)
        w_sizes = [n for n in wspec.blocks if n > 1]
        # decomposable W: generators are the per-summand generators
        # (degree-0 generators of trivial summands included implicitly);
        # every summand shares V, so the cap and certificate too
        reps = [generators.covariant_beta(vred, module_spec(p, [n])) for n in w_sizes or [1]]
        entry["beta_computed"] = max(rep.beta for rep in reps)
        entry["generator_degrees"] = reps[0].generator_degrees() if len(reps) == 1 else None
        entry["cap_used"] = reps[0].cap_used
        entry["cap_certificate"] = reps[0].cap_certificate
    if mode == "both":
        entry["agree"] = entry["beta_formula"] == entry["beta_computed"]
    entry["elapsed_ms"] = int((time.monotonic() - start) * 1000)
    return entry


def cmd_beta(args) -> int:
    entry = _case_result(args.p, _ints(args.v), _ints(args.w), args.mode)
    print(json.dumps(entry, indent=2))
    return 1 if entry["agree"] is False else 0


def _max_piece_dim(p, v_blocks):
    """Largest multidegree piece dimension the case can touch (at the
    certified cap), used for the prospective dimension budget."""
    vred, _ = formulas.reduce_V(_vspec(p, v_blocks))
    if not vred.blocks:
        return 1
    m = vred.num_blocks
    cap = max(p, m * p - vred.dim, formulas.coinvariant_top_degree_bound(vred))
    return max(
        math.prod(math.comb(d + n - 1, n - 1) for d, n in zip(combo, vred.blocks))
        for combo in _compositions(cap, m)
    )


def cmd_sweep(args) -> int:
    p_list = _ints(args.p)
    for p in p_list:  # refuse a bad prime before any case runs
        _vspec(p, [])
    for flag, value, low in (("--max-blocks", args.max_blocks, 1),
                             ("--max-block-size", args.max_block_size, 2),
                             ("--max-piece-dim", args.max_piece_dim, 1)):
        if value is not None and value < low:  # below these no case would run
            raise UsageError(f"{flag} must be at least {low}, got {value}")
    w_sizes = _ints(args.w)
    cases = []
    for p in p_list:
        sizes = range(2, min(args.max_block_size, p) + 1)
        for nblocks in range(1, args.max_blocks + 1):
            for blocks in itertools.combinations_with_replacement(sizes, nblocks):
                for n in w_sizes:
                    if 1 <= n <= p:
                        cases.append((p, sorted(blocks, reverse=True), [n]))
    entries = []
    for p, v_blocks, w_blocks in cases:
        if args.max_piece_dim and _max_piece_dim(p, v_blocks) > args.max_piece_dim:
            entries.append(_entry(p, v_blocks, w_blocks, "skipped: budget"))
            continue
        entries.append(_case_result(p, v_blocks, w_blocks, "both"))
    report = {"cases": entries}
    try:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        csv_path = re.sub(r"\.json$", "", args.out) + ".csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=_FIELDS)
            writer.writeheader()
            for e in entries:
                row = dict(e)
                for key in ("v_blocks", "w_blocks", "generator_degrees"):
                    if row[key] is not None:
                        row[key] = " ".join(str(x) for x in row[key])
                writer.writerow(row)
    except OSError as exc:
        raise UsageError(f"cannot write report: {exc}")
    ran = [e for e in entries if e["agree"] is not None]
    print(f"{len(entries)} cases, {len(entries) - len(ran)} skipped, "
          f"{sum(1 for e in ran if e['agree'])} agree, "
          f"{sum(1 for e in ran if not e['agree'])} disagree")
    return 0 if all(e["agree"] for e in ran) else 1


# -- decompose ----------------------------------------------------------


def cmd_decompose(args) -> int:
    vspec = _vspec(args.p, _ints(args.v))
    wspec = _vspec(args.p, _ints(args.w))
    if wspec.num_blocks != 1:
        raise UsageError("W must be a single block")
    if args.file == "-":
        lines = sys.stdin.read().splitlines()
    else:
        try:
            with open(args.file) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise UsageError(str(exc))
    n = wspec.blocks[0]
    if len(lines) > n:
        raise UsageError(f"covariant file has {len(lines)} lines but dim W = {n}")
    try:
        comps = [parse_polynomial(line, vspec) for line in lines]
    except ParseError as exc:
        raise UsageError(f"cannot parse component: {exc}")
    try:
        h = covariants.Covariant(vspec, wspec, comps)
    except covariants.ChainError as exc:
        raise UsageError(f"not a covariant: {exc}")
    if h.is_zero():
        raise UsageError("covariant is zero")
    try:
        h1, h2, u = covariants.decompose_by_norm(h, args.j)
    except ValueError as exc:
        raise UsageError(str(exc))
    except covariants.NormDecompositionError as exc:
        print(f"reconstruction h = N_j*h1 + h2: FAILED ({exc})")
        return 1
    for name, obj in (("h1", h1), ("h2", h2)):
        for i, f in enumerate(obj.components, start=1):
            print(f"{name}[{i}] = {format_polynomial(f)}")
    print(f"witness u = {format_polynomial(u)}")
    print("reconstruction h = N_j*h1 + h2: ok")
    return 0


# -- entry point --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parsing leaves it as is."""
    ap = argparse.ArgumentParser(
        prog="modcov",
        description="Invariants and covariants of Z/p in characteristic p",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("act", help="apply an operator to a polynomial")
    a.add_argument("--p", type=int, required=True)
    a.add_argument("--v", required=True, help="V block sizes, e.g. 3,2")
    a.add_argument("--op", required=True,
                   help="sigma | delta | delta^k | transfer | weight | 'norm j'")
    a.add_argument("expr", nargs="?", default="", help="polynomial, e.g. x[1,1]^2*x[2,1]")
    a.set_defaults(func=cmd_act)

    b = sub.add_parser("beta", help="formula vs computed beta for one case")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--v", required=True)
    b.add_argument("--w", required=True)
    b.add_argument("--mode", choices=["formula", "compute", "both"], default="both")
    b.set_defaults(func=cmd_beta)

    s = sub.add_parser("sweep", help="run a family of beta comparisons")
    s.add_argument("--p", required=True, help="comma-separated primes")
    s.add_argument("--max-blocks", type=int, required=True)
    s.add_argument("--max-block-size", type=int, required=True)
    s.add_argument("--w", required=True, help="comma-separated W block sizes")
    s.add_argument("--out", required=True, help="JSON report path (CSV written next to it)")
    s.add_argument("--max-piece-dim", type=int, default=None,
                   help="skip cases whose largest graded piece exceeds this")
    s.set_defaults(func=cmd_sweep)

    d = sub.add_parser("decompose", help="split h = N_j*h1 + h2 (transfer h2)")
    d.add_argument("--p", type=int, required=True)
    d.add_argument("--v", required=True)
    d.add_argument("--w", required=True, help="single W block size")
    d.add_argument("--j", type=int, required=True, help="block index for the norm")
    d.add_argument("file", help="covariant: one component per line ('-' for stdin)")
    d.set_defaults(func=cmd_decompose)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
