"""Run a timing helper of a test module in a child process with one BLAS thread.

A threaded BLAS call speeds up with n and, on a loaded host, its worker
threads spin on process CPU time while they wait for a core; one thread
keeps process CPU time equal to the work done.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gpcl


def call_in_one_thread_child(module: str, func: str):
    """``module.func()`` in a fresh interpreter with one BLAS thread; its
    return value must be JSON."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src_dir = str(Path(gpcl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src_dir, env.get("PYTHONPATH"))))
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        f"from {module} import {func}; print(json.dumps({func}()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(proc.stdout.splitlines()[-1])
