"""perfbench/tracing.py wraps library functions by name; a renamed one must
fail here instead of breaking `perfbench/run.py --trace 1`."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_library():
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import tracing; "
            "tracing.install(tracing.Tracer())")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                           str(ROOT / "src")], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
