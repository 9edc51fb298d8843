"""Machine notes for benchmark results.

    python3 perfbench/machine.py

prints the notes as JSON.  The benchmark prints them to standard error on
every run.  The CPU model and MemTotal are read from /proc.  BLAS threading
is recorded as found; the benchmark never sets it.
"""

import json
import os
import platform
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas():
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _proc_field(path, key):
    with open(path) as fh:
        for line in fh:
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    return None


def notes():
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


if __name__ == "__main__":
    json.dump(notes(), sys.stdout, indent=2)
    sys.stdout.write("\n")
