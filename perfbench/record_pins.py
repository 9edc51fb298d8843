"""Record the expected outputs in perfbench/pins.json from the current code.

    python3 perfbench/record_pins.py [--seeds 0-30]

Run from the repository root.  For every benchmark workload and seed it runs
the workload's command in this process, at the workload's cycle cap, and
keeps the values the benchmark compares: per-cycle ``theta_tilde``,
``j_of_U`` and ``abs_error`` of ``optimize``, and ``theta_H``,
``theta_delta`` and ``I_eff`` of ``estimate``.  The self-test workload
``diffusion_tiny`` is recorded for its default seed only, the one the
self-test runs.  Re-record only for a change that is meant to alter these
values, and state the change.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from dwropt import cli  # noqa: E402

import run as bench  # noqa: E402

HISTORY_KEYS = ("theta_tilde", "j_of_U", "abs_error")


def record(workload, seed, scratch):
    cfg = cli.ExperimentConfig.from_ini(ROOT / workload.config)
    out = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if workload.command == "estimate":
            err = cli.estimate_once(cfg, out, seed)
            return {"summary": {"theta_H": err.theta_H, "theta_delta": err.theta_delta,
                                "I_eff": err.i_eff}}
        if workload.max_cycles:
            cfg.set("optimizer", "max_cycles", workload.max_cycles)
        _, state = cli.run_scenario(cfg, out, seed)
        return {
            "stop": state.stop_reason,
            "history": [{k: row[k] for k in HISTORY_KEYS} for row in state.history],
        }
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-30", help="inclusive range, e.g. 0-30")
    args = parser.parse_args()
    lo, hi = (int(t) for t in args.seeds.split("-"))
    path = HERE / "pins.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    for name in ("diffusion_small", "advdiff_small", "estimate_small", "diffusion_tiny"):
        w = bench.WORKLOADS[name]
        seeds = pins.setdefault(name, {})
        wanted = {w.default_seed}
        if name != "diffusion_tiny":
            wanted.update(range(lo, hi + 1))
        for seed in sorted(wanted):
            seeds[str(seed)] = record(w, seed, scratch)
            print(name, seed, seeds[str(seed)].get("stop", ""), flush=True)
    shutil.rmtree(scratch, ignore_errors=True)
    path.write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    main()
