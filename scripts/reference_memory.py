"""Peak memory of the fine-scale reference solve.

    python3 scripts/reference_memory.py CONFIG [--dof-cap N]

Runs ``dwropt reference CONFIG`` in a fresh Python process, with this
checkout's ``src`` on ``PYTHONPATH``, and prints one JSON line: the config,
the exit code, the child's peak resident set size (``ru_maxrss`` of that
process alone, in MB), its wall time from start to exit, and the QoI as the
text of ``reference_qoi.txt`` (null, with the tail of the child's stderr,
when the run failed).  ``--dof-cap`` overrides ``[mesh] dof_cap`` in a copy
of the config, which a paper-scale reference needs.  The exit code is the
child's.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dwropt.cli import ExperimentConfig  # noqa: E402


def measure(config, dof_cap=None):
    """The JSON record of one ``dwropt reference`` run in a child process."""
    record = {"config": str(config), "dof_cap": dof_cap}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        if dof_cap is not None:
            cfg = ExperimentConfig.from_ini(config)
            cfg.set("mesh", "dof_cap", str(dof_cap))
            config = work / "config.ini"
            config.write_text(cfg.to_ini_text(), newline="\n")
        cmd = [sys.executable, "-m", "dwropt.cli", "reference", str(config), "--out", str(work / "out")]
        with open(work / "stderr.txt", "w") as stderr:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped by wait4
        qoi_file = work / "out" / "reference_qoi.txt"
        return {
            **record,
            "exit_code": code,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "wall_s": wall,
            "qoi": qoi_file.read_text().strip() if code == 0 else None,
            "stderr": (work / "stderr.txt").read_text()[-500:] if code else "",
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("--dof-cap", type=int, help="override [mesh] dof_cap")
    args = parser.parse_args(argv)
    record = measure(args.config, args.dof_cap)
    print(json.dumps(record))
    return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
