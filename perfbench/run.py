"""modcov benchmark: time to certified answers, end to end and per layer.

    python3 perfbench/run.py --workload cov-allw --seed 1 --seconds 40 --trace 0

Runs repetitions of one workload, each in a fresh interpreter
(worker.py), until ``--seconds`` have passed and at least a minimum
number have run, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, medians over repetitions
with tracing off, with times scaled to a reference host speed (see
_at_ref_speed).  ``--trace 1`` alternates traced and plain
repetitions and reports the per-layer metrics; it also runs the
worker's self-test and requires the exact work counts of the traced
repetitions to agree.  Every run writes a result file with the
environment (nproc, BLAS threads, Python/numpy versions, seed) and the
raw repetitions to perfbench/out/.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("gamma-1block", "cov-allw", "structure")
DEADLINE_S = 170  # the whole run, repetitions included
MIN_REPS = {0: 3, 1: 4}  # trace 1: at least two traced and two plain
# With a 2-thread pool on a shared 2-core machine, wall time depended on
# whether the second core was free at the moment (30% swings within one
# run); one BLAS thread makes wall time track the speed of one core.
BLAS_THREADS = 1
# End-to-end times are reported at a fixed host speed: the speed at which
# worker.py's reference loop takes REF_S seconds.  See _at_ref_speed.
REF_S = 0.005

# per-layer metrics: span name + "." + field, or a name _layer_value derives
PER_LAYER = [
    "chains.nilpotent_chains.calls",
    "chains.nilpotent_chains.total_s",
    "chains.nilpotent_chains.max_dim",
    "fastlinalg.add_rows.chains.calls",
    "fastlinalg.add_rows.chains.self_s",
    "fastlinalg.add_rows.chains.rows_in",
    "fastlinalg.add_rows.chains.rank_out",
    "fastlinalg.add_rows.span.calls",
    "fastlinalg.add_rows.span.self_s",
    "fastlinalg.add_rows.span.rows_in",
    "fastlinalg.add_rows.span.rank_out",
    "fastlinalg.add_rows.span.useful_ratio",
    "fastlinalg.matmul_mod.calls",
    "fastlinalg.matmul_mod.self_s",
    "fastlinalg.matmul_mod.flops",
    "fastlinalg.matmul_mod.bytes",
    "fastlinalg.rref_mod.calls",
    "fastlinalg.rref_mod.self_s",
    "fastlinalg.rref_mod.max_rows",
    "fastlinalg.reduce_against.calls",
    "fastlinalg.reduce_against.self_s",
    "fastlinalg.asmod.calls",
    "fastlinalg.asmod.self_s",
    "chains.PieceChains.calls",
    "chains.PieceChains.total_s",
    "chains.PieceChains.max_size",
    "chains.fold_s",
    "chains.multiplication_map.calls",
    "chains.multiplication_map.total_s",
    "chains.multiplication_map.elems",
    "generators.gamma.total_s",
    "generators.coinvariants_dims.total_s",
    "generators.algebra_beta.total_s",
    "generators.covariant_beta.total_s",
    "generators.module_generators.total_s",
    "covariants.decompose_by_norm.calls",
    "covariants.decompose_by_norm.total_s",
    "covariants.decompose_transfer_covariant.calls",
    "covariants.decompose_transfer_covariant.total_s",
    "poly.delta_power.calls",
    "poly.delta_power.total_s",
    "poly.delta_power_preimage.calls",
    "poly.delta_power_preimage.total_s",
    "poly.divide_by_norm.calls",
    "poly.divide_by_norm.total_s",
    "poly.invariant_basis.calls",
    "poly.invariant_basis.total_s",
    "poly.norm.calls",
    "poly.norm.total_s",
    "field.rref.calls",
    "field.rref.total_s",
    "field.rref.max_cells",
    "field.solve.calls",
    "field.solve.total_s",
    "field.kernel_basis.calls",
    "field.kernel_basis.total_s",
    "cli.main.calls",
    *(f"{layer}.self_s" for layer in LAYERS),
    "wall_traced_s",
    "untraced_s",
    "trace_overhead_s",
    "wall_raw_s",
    "ref_loop_s",
]

# count fields are exact and must repeat across traced repetitions
_EXACT = ("calls", "rows_in", "rank_out", "flops", "bytes", "elems", "max_dim",
          "max_rows", "max_size", "max_cells")


def _unit(name):
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    return {"flops": "flop", "bytes": "B", "useful_ratio": "ratio"}.get(last, "count")


def _env(args, blas_threads):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def _repetition(args, env, traced, deadline):
    """One worker process; returns its result dict plus setup_s."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    if traced:
        cmd += ["--trace", "--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "repetition timed out"}
    result_lines = [ln for ln in rest.splitlines() if ln.startswith("@@result ")]
    if first.strip() != "@@ready" or proc.returncode != 0 or not result_lines:
        return {"error": f"worker exited {proc.returncode} without a result"}
    out = json.loads(result_lines[-1][len("@@result "):])
    out["setup_s"] = setup_s
    out["traced"] = traced
    return out


def _selftest(env):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--selftest"],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, timeout=120,
    )
    if proc.returncode != 0:
        return [f"worker self-test failed: {proc.stdout.strip()[-500:]}"]
    return []


def _exact_counts(rep):
    return {
        name: {k: v for k, v in st.items() if k in _EXACT}
        for name, st in rep["trace"]["stats"].items()
    }


def _layer_value(name, rep):
    tr = rep["trace"]
    stats = tr["stats"]
    if name == "wall_traced_s":
        return rep["wall_s"]
    if name == "untraced_s":
        return tr["untraced_s"]
    if name == "chains.fold_s":
        return stats.get("chains.PieceChains", {}).get("total_s", 0) - tr["nilpotent_in_pieces_s"]
    if name == "fastlinalg.add_rows.span.useful_ratio":
        st = stats.get("fastlinalg.add_rows.span", {})
        return st.get("rank_out", 0) / st["rows_in"] if st.get("rows_in") else 0.0
    span, field = name.rsplit(".", 1)
    if field == "self_s" and span in LAYERS:
        return tr["layer_self_s"][span]
    return stats.get(span, {}).get(field, 0)


def _per_layer(traced, plain):
    out = {}
    for name in PER_LAYER:
        if name == "wall_raw_s":
            value = statistics.median(r["wall_s"] for r in plain)
        elif name == "ref_loop_s":
            value = statistics.median(statistics.fmean(r["ref_s"]) for r in plain)
        elif name == "trace_overhead_s":
            value = statistics.median(r["wall_s"] for r in traced) - statistics.median(
                r["wall_s"] for r in plain
            )
        elif _unit(name) in ("s", "ratio"):
            value = statistics.median(_layer_value(name, r) for r in traced)
        else:
            value = _layer_value(name, traced[0])
        out[name] = {"value": value, "unit": _unit(name)}
    return out


def _at_ref_speed(rep, key):
    """A repetition's time ``rep[key]`` at the speed where the reference
    loop takes REF_S.

    The host runs a fixed computation up to 1.8x slower while other
    tenants load it, in stretches of seconds to minutes, so a whole run
    can sit in a slow stretch.  The reference loop samples the host's
    speed between the ops of every repetition; the repetition's time is
    scaled by REF_S over the mean of its readings.  The mean, not the
    median, because an op's time adds up fast and slow stretches alike.
    """
    return rep[key] * REF_S / statistics.fmean(rep["ref_s"])


def _end_to_end(reps):
    failed = sum(r["failed"] for r in reps)
    attempted = sum(r["ops"] for r in reps)
    metrics = {
        "setup_s": ("s", statistics.median(_at_ref_speed(r, "setup_s") for r in reps)),
        "wall_s": ("s", statistics.median(_at_ref_speed(r, "wall_s") for r in reps)),
        "cpu_s": ("s", statistics.median(_at_ref_speed(r, "cpu_s") for r in reps)),
        "peak_rss_mb": ("MB", statistics.median(r["peak_rss_mb"] for r in reps)),
        "ok_frac": ("ratio", 1 - failed / attempted),
    }
    return {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="modcov benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "modcov" / "__init__.py").is_file():
        print(f"error: no modcov source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    # one process and no threads beyond the BLAS pool; see BLAS_THREADS
    blas_threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    OUT.mkdir(exist_ok=True)

    problems = _selftest(env) if args.trace else []
    reps = []
    longest_s = 0.0
    while True:
        # start another repetition only if it should end within --seconds
        now = time.monotonic()
        if len(reps) >= MIN_REPS[args.trace] and now - start + longest_s > args.seconds:
            break
        if now + 1.5 * longest_s > deadline:
            problems.append(f"stopped after {len(reps)} repetitions at the deadline")
            break
        rep = _repetition(args, env, args.trace == 1 and len(reps) % 2 == 0, deadline)
        longest_s = max(longest_s, time.monotonic() - now)
        if "error" in rep:
            problems.append(rep["error"])
            break
        reps.append(rep)
        problems.extend(f"{f['op']}: {f['problems']}" for f in rep["failures"])

    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    if args.trace and len(traced) >= 2:
        first = _exact_counts(traced[0])
        if any(_exact_counts(r) != first for r in traced[1:]):
            problems.append("exact work counts differ between traced repetitions")
    enough = len(plain) >= 1 and (not args.trace or len(traced) >= 1)
    if enough:
        metrics = _per_layer(traced, plain) if args.trace else _end_to_end(plain)
    else:
        metrics = {}
    attempted = sum(r["ops"] for r in reps) or 1
    failed = sum(r["failed"] for r in reps) if enough else attempted
    result = {
        "correct": enough and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "env": _env(args, blas_threads),
        "problems": problems,
        "repetitions": reps,
        "result": result,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for msg in problems:
        print(f"problem: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
