"""One repetition of a workload, in a fresh interpreter.

Started by run.py, one process per repetition, so modcov's lru_caches and
its single-slot engine start cold, as they do for a ``modcov beta`` user.
It prints ``@@ready`` once modcov is imported and the inputs are built
(the end of set-up), times each op's ``run``, checks each result outside
the timed region, and prints ``@@result <json>`` as its last line.

    python3 perfbench/worker.py --workload cov-allw --seed 1 [--trace] [--spans FILE]
    python3 perfbench/worker.py --selftest

``--selftest`` checks, at a tiny size, that a corrupted or missing
fingerprint and a raising op become counted failures, not crashes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import modcov  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import Op, check_result, gamma_op, load_fingerprints, make_ops  # noqa: E402

REF_ITERATIONS = 60_000


def ref_loop_s() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs right now.

    It touches no modcov code and no memory beyond its own frame, so a
    change to modcov cannot move it; run.py scales times by it.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - t0


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def timed_run(op: Op, tracer: Tracer | None):
    """(result, error or None, wall seconds, cpu seconds) of ``op.run``."""
    cpu0 = _cpu_s()
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # a raising op is a failed op
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return result, error, wall, _cpu_s() - cpu0


def repetition(workload: str, seed: int, trace: bool, spans_path: str | None) -> dict:
    fingerprints = load_fingerprints()
    ops = make_ops(workload, seed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    print("@@ready", flush=True)
    # the reference loop runs before the first op and after each op,
    # outside the timed regions, so it samples the host all through the ops
    ref_s = [ref_loop_s()]
    wall = cpu = 0.0
    failures = []
    for op in ops:
        result, error, op_wall, op_cpu = timed_run(op, tracer)
        ref_s.append(ref_loop_s())
        wall += op_wall
        cpu += op_cpu
        problems = [error] if error else check_result(op, result, fingerprints)
        if problems:
            failures.append({"op": op.key, "problems": problems})
    out = {
        "ops": len(ops),
        "failed": len(failures),
        "failures": failures,
        "wall_s": wall,
        "cpu_s": cpu,
        "ref_s": ref_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["trace"] = {
            "stats": {name: dict(st) for name, st in sorted(tracer.stats.items())},
            "layer_self_s": tracer.layer_self_s(),
            "top_s": tracer.top_s,
            "untraced_s": wall - tracer.top_s,
            "nilpotent_in_pieces_s": tracer.nilpotent_in_pieces_s,
            "bindings": tracer.bindings,
            "spans": len(tracer.spans),
        }
        if spans_path:
            tracer.write_spans(spans_path)
    return out


def selftest() -> list:
    """Problems with the failure accounting itself (empty when sound)."""
    errors = []
    op = gamma_op(3, (2,))
    result, error, _, _ = timed_run(op, None)
    if error:
        return [f"tiny op raised: {error}"]
    good = {op.key: op.fingerprint(result)}
    if check_result(op, result, good):
        errors.append("a correct fingerprint was reported as a failure")
    corrupted = {op.key: dict(good[op.key], beta=good[op.key]["beta"] + 1)}
    if not check_result(op, result, corrupted):
        errors.append("a corrupted fingerprint was not counted as a failure")
    if not check_result(op, result, {}):
        errors.append("a missing fingerprint was not counted as a failure")
    raising = Op("selftest|raise", run=lambda: 1 // 0, check=lambda r: [])
    _, error, _, _ = timed_run(raising, None)
    if not error:
        errors.append("a raising op was not counted as a failure")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args(argv)
    if Path(modcov.__file__).resolve().parent != SRC / "modcov":
        print(f"error: imported modcov from {modcov.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        errors = selftest()
        print("@@result " + json.dumps({"selftest_errors": errors}), flush=True)
        return 1 if errors else 0
    out = repetition(args.workload, args.seed, args.trace, args.spans)
    print("@@result " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
