"""perfbench/ binds modcov by name: its tracer wraps each entry point of
``tracer.TARGETS`` wherever modcov binds it, so a name moved out of
``src/modcov`` breaks ``perfbench/run.py --trace 1``."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """import tracer, workloads
t = tracer.Tracer()
t.install()
print([name for _, _, name, _ in tracer.TARGETS if t.bindings.get(name, 0) < 1])"""


def test_tracer_binds_every_target():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
