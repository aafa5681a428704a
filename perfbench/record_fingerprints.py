"""Write fingerprints.json: the pinned results of every gamma-1block and
cov-allw op, taken from the modcov tree next to this directory.

Run it only on code whose results are trusted (the file checked in was
recorded from the unchanged seed code); every op must also pass its
formula checks, or nothing is written.

    python3 perfbench/record_fingerprints.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import FINGERPRINTS, make_ops  # noqa: E402


def main() -> int:
    fingerprints = {}
    for workload in ("gamma-1block", "cov-allw"):
        for op in make_ops(workload, 0):
            result = op.run()
            problems = op.check(result)
            if problems:
                print(f"error: {op.key}: {problems}", file=sys.stderr)
                return 1
            fingerprints[op.key] = op.fingerprint(result)
    with open(FINGERPRINTS, "w") as fh:
        json.dump(fingerprints, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(fingerprints)} fingerprints to {FINGERPRINTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
