"""perfbench/tracing.py wraps appnet's methods and module functions by name.
A renamed one would fail every traced benchmark run with an AttributeError,
so its install() runs here, in a subprocess: it patches classes for the
whole process, which must not be this one."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracing_hooks_still_resolve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave perfbench/ as it is
    done = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Recorder())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
