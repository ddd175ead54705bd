"""Process plumbing shared by run.py and its workers.

Every pass runs in a fresh interpreter with a fixed hash seed and one BLAS
thread, so symbolic caches start cold and timings do not depend on how many
cores the machine lends to numpy.  Where the kernel allows it, children also
run without address-space randomisation, so that each fresh interpreter
lays out its memory the same way and one pass's cache behaviour matches the
next's.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
HOSTSPEED = Path(__file__).resolve().parent / "hostspeed.py"
WORK_DIR = ROOT / ".perfbench_work"

CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


ADDR_NO_RANDOMIZE = 0x0040000


def fix_address_layout() -> bool:
    """Turn off address-space randomisation for the processes this one
    starts from now on (the flag is inherited across exec).  Returns whether
    the kernel allowed it."""
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return False
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)
    return current != -1 and personality(current | ADDR_NO_RANDOMIZE) != -1


class ChildError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], timeout: float,
              new_group: bool = True) -> subprocess.CompletedProcess:
    """Run argv and capture its output.  A worker gets a process group of its
    own, so that on timeout the group, with any CLI process the worker
    started, is killed and reaped; CLI processes stay in their worker's group."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True,
                            start_new_session=new_group)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        if new_group:
            os.killpg(proc.pid, signal.SIGKILL)
        else:
            proc.kill()
        proc.communicate()
        raise ChildError(f"timed out after {timeout:.0f} s: {' '.join(argv[:4])}")
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def run_worker(args: list[str], timeout: float) -> dict:
    """Run one worker process and return the JSON object on its last line."""
    done = run_child([sys.executable, str(WORKER), *args], timeout)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildError(f"worker {' '.join(args)} exited {done.returncode}")
    return json.loads(lines[-1])
