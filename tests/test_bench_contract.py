"""The benchmark still runs against this checkout.

``bench/smoke.py`` runs every workload on tiny inputs, untraced and traced.
Tracing patches named call sites inside the package, so renaming or
deleting one of them fails here rather than only when the benchmark runs.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_smoke_passes():
    # smoke.py imports the package from this checkout's src by itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "smoke.py"], cwd=BENCH, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout, proc.stdout
