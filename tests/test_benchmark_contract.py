"""The benchmark's tracer must still find every opengw name it wraps.

benchmark/tracing.py rebinds wrappers around named opengw functions; a
refactor that renames or unbinds one would only fail under ``--trace 1``.
This runs tracing.install() in a fresh interpreter, reading benchmark/ and
changing nothing there.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracing_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "benchmark")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import opengw.series, tracing; tracing.install(); print(opengw.series.power.__name__)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "traced"
