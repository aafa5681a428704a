"""Bench ladder: the large cases perfbench leaves out, end to end.

    python tests/bench_ladder.py BENCH_<n>.json [case ...]

Runs each case (all of CASES but LONG by default) REPEATS times, each
run in a fresh interpreter with BLAS at one thread and glibc's mmap
threshold pinned: ``ru_maxrss`` follows that threshold, which glibc
otherwise raises as large blocks are freed.  The cases take turns, one
run of each per round; a case in LONG runs once, and only when named.
It writes one JSON file: per case the median over the runs of the wall
time of each timed stage, of their sum and of the process's peak RSS
(``ru_maxrss``), the [min, max] of each under the ``*_range`` keys, and a
sha256 fingerprint of what it computed (generator counts, beta and gamma;
for the rref case the rows, pivots and origins).  It fails, writing
nothing, when the runs of a case disagree on the fingerprint.  Two ladder
files with equal fingerprints computed the same answers.  The modcov
imported is the one in ``src/`` next to this file, so a copy of this
script run from another checkout measures that checkout.

The rref case times ``rref_mod`` on one real span piece: the products
``_span_rows`` gives for V_4+V_3 at p = 5, multidegree (7, 4), from the
generators of k[V,V_3]^G below degree 11 (4,999 x 1,800, rank 1,079).
Building it (the algebra and every covariant module through the cap) is
not timed, but sets the case's peak RSS.

The first covariant stage of an every-W case, n = 2, carries the one pass
that computes every 1 < n < p; the later stages are lookups.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = {
    k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}  # a fixed threshold: glibc's is dynamic

# name -> (p, blocks of V, what to compute); "every-w" is gamma, the
# algebra and k[V,V_n]^G for n = 1..p, "gamma" stops after the algebra,
# "rref" times the span piece RREF_PIECE
CASES = {
    "gamma-V5-p7": (7, (5,), "gamma"),
    "V4+V2-p5-every-w": (5, (4, 2), "every-w"),
    "V4+V3-p5-every-w": (5, (4, 3), "every-w"),
    "rref-V4+V3-p5-md74-n3": (5, (4, 3), "rref"),
    "2V4-p5-every-w": (5, (4, 4), "every-w"),
}
LONG = {"2V4-p5-every-w"}  # minutes and over 1 GB per run
RREF_PIECE = ((7, 4), 3)  # multidegree and n of the rref case's span piece
REPEATS = 3  # runs per case; one run's wall time can be off by half


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _engine_case(p, blocks, what):
    from modcov import generators
    from modcov.modules import module_spec

    v = module_spec(p, blocks)
    stages, answers = {}, {}
    t = time.perf_counter()
    answers["gamma"] = generators.gamma(v)
    answers["coinvariant_dims"] = generators.coinvariants_dims(v)
    alg = generators.algebra_beta(v)
    answers["algebra"] = [alg.beta, sorted(alg.generator_counts.items())]
    stages["gamma+algebra"] = time.perf_counter() - t
    if what == "every-w":
        for n in range(1, p + 1):
            t = time.perf_counter()
            rep = generators.covariant_beta(v, module_spec(p, (n,)))
            answers[f"n={n}"] = [rep.beta, sorted(rep.generator_counts.items())]
            stages[f"n={n}"] = time.perf_counter() - t
    return stages, answers


def _span_piece(p, blocks):
    """The span rows of RREF_PIECE: A_+ times the module generators below
    its degree, as ``_span_rows`` builds them."""
    import numpy as np

    from modcov import generators
    from modcov.modules import module_spec

    md, n = RREF_PIECE
    eng = generators._engine(module_spec(p, blocks))
    eng.ensure_covariant(n)
    parts = eng._span_rows(md, sum(md), eng._cov[n].terms(), 1)
    return np.concatenate([prod for *_, prod in parts])


def _rref_case(p, blocks, what):
    import numpy as np

    from modcov.fastlinalg import rref_mod

    m = _span_piece(p, blocks)
    t = time.perf_counter()
    ech, pivs, origins = rref_mod(m, p)
    stages = {"rref": time.perf_counter() - t}
    digest = hashlib.sha256(ech.astype(np.int64).tobytes())
    digest.update(np.asarray(pivs, dtype=np.int64).tobytes())
    digest.update(np.asarray(origins, dtype=np.int64).tobytes())
    return stages, {"shape": list(m.shape), "rank": len(pivs), "rref_sha256": digest.hexdigest()}


def _summary(runs):
    """One case's record from its runs: medians, [min, max] ranges and the
    fingerprint they share (None when they differ)."""
    prints = {r["fingerprint"] for r in runs}

    def spread(key, values):
        return {key: statistics.median(values), key + "_range": [min(values), max(values)]}

    stages = {k: [r["stages_s"][k] for r in runs] for k in runs[0]["stages_s"]}
    return {
        "runs": len(runs),
        **spread("wall_s", [r["wall_s"] for r in runs]),
        "stages_s": {k: statistics.median(v) for k, v in stages.items()},
        "stages_s_range": {k: [min(v), max(v)] for k, v in stages.items()},
        **spread("peak_rss_mb", [r["peak_rss_mb"] for r in runs]),
        "fingerprint": prints.pop() if len(prints) == 1 else None,
    }


def _run_case(name):
    """Run one case in this process; print its JSON record."""
    sys.path.insert(0, str(ROOT / "src"))
    import modcov.generators  # noqa: F401  (imports are not timed)

    p, arg, what = CASES[name]
    run = _rref_case if what == "rref" else _engine_case
    stages, answers = run(p, arg, what)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        json.dumps(
            {
                "wall_s": round(sum(stages.values()), 3),
                "stages_s": {k: round(v, 3) for k, v in stages.items()},
                "peak_rss_mb": round(rss_mb, 1),
                "fingerprint": _sha(answers),
            }
        )
    )


def main(argv):
    if len(argv) >= 2 and argv[0] == "--case":
        _run_case(argv[1])
        return 0
    if not argv or any(a not in CASES for a in argv[1:]):
        print(__doc__.strip(), "\ncases:", ", ".join(CASES), file=sys.stderr)
        return 2
    import numpy

    out = Path(argv[0])
    record = {
        "host": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "blas_threads": 1,
            **MALLOC_ENV,
        },
    }
    names = argv[1:] or [name for name in CASES if name not in LONG]
    runs = {name: [] for name in names}
    for round_ in range(REPEATS):
        for name in names:
            if round_ and name in LONG:
                continue
            proc = subprocess.run(
                [sys.executable, __file__, "--case", name],
                env={**os.environ, **BLAS_ENV, **MALLOC_ENV},
                capture_output=True,
                text=True,
                check=True,
            )
            runs[name].append(json.loads(proc.stdout.strip().splitlines()[-1]))
            run = runs[name][-1]
            print(f"{name}: {run['wall_s']} s, {run['peak_rss_mb']} MB", file=sys.stderr)
    record["cases"] = {name: _summary(r) for name, r in runs.items()}
    differ = [name for name, case in record["cases"].items() if case["fingerprint"] is None]
    if differ:
        print("runs disagree on the fingerprint:", ", ".join(differ), file=sys.stderr)
        return 1
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
