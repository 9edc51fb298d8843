"""dwropt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dwropt checkout.  Each sample is one ``dwropt``
command in a fresh Python process (``perfbench/child.py``), one at a time:
a closed loop with a single client and no extra threads.  BLAS threading is
left as the environment sets it and recorded in the machine notes.

``--seed`` is passed to the command as its ``--seed`` override (field and
advection seed).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Untraced run: samples of the workload's command until ``--seconds`` have
passed (at least one).  Timings are medians over the samples of the run.

Traced run: one traced sample of the workload's command.  It wraps the
public functions of every layer from outside the package (``spans.py``);
``trace.overhead_s`` is its span count times the cost of one span, measured
in the same process.

Every sample's artifacts are checked: all values finite, the stop reason
consistent with the history, and, for the seeds recorded in ``pins.json``
(``record_pins.py``), the per-cycle values to the relative tolerance
``RTOL``.  The traced sample must also show the factorization and call
counts implied by its cycle count.  A sample that exits non-zero (2/3/4 are
the CLI's error codes) or fails a check counts as failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Tolerance for values recorded in pins.json.  Runs with different BLAS
# thread counts were seen to differ by about 1e-15 relative.
RTOL = 1e-9

# Each run must end within 180 s; no sample is started past this point and
# a sample still running at it is killed.
HARD_LIMIT_S = 165.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str
    default_seed: int
    max_cycles: int  # Gauss-Newton cycle cap; 0 keeps the config's own


# The optimize workloads stop after a fixed number of cycles, so that every
# seed does the same work: run to convergence, diffusion_small stops after 11
# cycles with seed 1 and after 7 with seed 2, and a run takes about a minute.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("diffusion_small", "optimize", "configs/diffusion_small.ini", 1, 3),
        Workload("advdiff_small", "optimize", "configs/advdiff_small.ini", 21, 2),
        Workload("estimate_small", "estimate", "configs/diffusion_small.ini", 1, 0),
        # Self-test workload: converges in five cycles, about a second.
        Workload("diffusion_tiny", "optimize", "configs/diffusion_tiny.ini", 7, 0),
    )
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "estimator_s": "s",
    "cycle_s": "s",
    "peak_rss_mb": "MB",
    "cycles": "count",
}

PER_LAYER_UNITS = {"s": "s", "self_s": "s", "overhead_s": "s", "bytes": "B", "lu_bytes": "B"}


def layer_unit(name):
    return PER_LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")


# ---------------------------------------------------------------------------
# output checks


class CheckFailed(Exception):
    pass


def _close(value, expected, scale=0.0):
    return abs(value - expected) <= RTOL * max(abs(expected), scale)


def _csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _finite_csv(path):
    """All fields of the data rows, as floats; every one must be finite."""
    values = [
        float(v) for row in _csv_rows(path) for v in row.values() if v != ""
    ]
    bad = [v for v in values if not math.isfinite(v)]
    if bad or not values:
        raise CheckFailed(f"{path.name}: {len(bad)} non-finite of {len(values)} values")


def check_optimize(out, result, pinned):
    for name in ("model_initial.csv", "model_final.csv", "solution_final.csv"):
        _finite_csv(out / name)
    _finite_csv(out / "history.csv")
    rows = [
        {k: (float(v) if v != "" else None) for k, v in row.items()}
        for row in _csv_rows(out / "history.csv")
    ]
    report = (out / "report.txt").read_text()
    stop = report.split("stop reason: ", 1)[1].split("\n", 1)[0]
    theta = [abs(r["theta_tilde"]) for r in rows]
    if stop == "converged":
        if theta[-1] > result["stop_fraction"] * theta[0]:
            raise CheckFailed(f"converged with |theta| {theta[-1]} above the stop fraction")
    elif stop == "max_cycles":
        # |theta| need not fall from cycle to cycle: the step minimizes the
        # sum of squared indicators, and their signed sum can grow (seed 19 of
        # advdiff_small: 0.101, then 0.295).  A diverging run exits with 3.
        if len(rows) != result["max_cycles"]:
            raise CheckFailed(f"stopped at max_cycles after {len(rows)} cycles")
    else:
        raise CheckFailed(f"stop reason '{stop}'")
    if pinned is not None:
        ref = pinned["history"]
        if (len(rows), stop) != (len(ref), pinned["stop"]):
            raise CheckFailed(f"{len(rows)} cycles ({stop}), pinned {len(ref)} ({pinned['stop']})")
        for row, want in zip(rows, ref):
            for key, value in want.items():
                if not _close(row[key], value):
                    raise CheckFailed(f"cycle {int(row['cycle'])} {key} {row[key]!r} != {value!r}")
    last = rows[-1]
    return {
        "cycles": len(rows),
        "stop": stop,
        "final_rel_error_pct": last["rel_error_pct"],
    }


def check_estimate(out, result, pinned):
    _finite_csv(out / "breakdown.csv")
    summary = (out / "breakdown.csv").read_text().splitlines()[-1].split(",")[1:]
    values = {k: float(v) for k, v in (item.split("=") for item in summary)}
    j_u, j_ref = result["j_of_U"], result["j_reference"]
    rel = 100.0 * abs(j_ref - j_u) / abs(j_ref)
    if not all(math.isfinite(v) for v in (*values.values(), rel)):
        raise CheckFailed(f"non-finite summary {values}, rel error {rel}")
    if pinned is not None:
        want = pinned["summary"]
        # theta_H vanishes by Galerkin orthogonality; compare it on the
        # scale of theta_delta, not of its own rounding noise.
        scale = abs(want["theta_delta"])
        for key, value in want.items():
            if not _close(values[key], value, scale if key == "theta_H" else 0.0):
                raise CheckFailed(f"{key} {values[key]!r} != {value!r}")
    return {"cycles": 1, "stop": None, "final_rel_error_pct": rel}


CHECKS = {"optimize": check_optimize, "estimate": check_estimate}


def expected_counts(command, n_cells, cycles, max_cycles):
    """Layer counts implied by the cycle count: one patch factorization per
    sampling cell and sweep, one macro factorization per cycle plus the final
    solution, one reference factorization, four response solves per cell in
    every cycle that builds the Jacobian, one lm_step per cycle that did not
    stop the loop.

    At the config's own stop, the default seeds run 11 cycles on
    diffusion_small (704 patch of 717 factorizations, 2,816 response_U, 10
    lm_step) and 5 on advdiff_small (160 of 167, 640, 4)."""
    if command == "estimate":
        return {
            "fem.factor.patch.count": n_cells,
            "fem.factor.macro.count": 1,
            "fem.factor.fine.count": 1,
            "dwr.local_enhancement.calls": n_cells,
            "optim.response_U.calls": 0,
            "optim.lm_step.calls": 0,
        }
    return {
        "fem.factor.patch.count": n_cells * cycles,
        "fem.factor.macro.count": cycles + 1,
        "fem.factor.fine.count": 1,
        "dwr.local_enhancement.calls": n_cells * cycles,
        "optim.assemble_system.calls": cycles,
        "optim.response_U.calls": 4 * n_cells * min(cycles, max_cycles - 1),
        "optim.lm_step.calls": cycles - 1,
    }


def check_counts(layers, expected):
    for key, value in expected.items():
        if layers[key] != value:
            raise CheckFailed(f"{key} = {layers[key]}, expected {value}")


# ---------------------------------------------------------------------------
# samples


class Runner:
    """Starts the samples of one run in a scratch directory of the checkout."""

    def __init__(self, root, workload, seed, pins, work):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.pinned = pins.get(workload.name, {}).get(str(seed))
        self.work = work
        self.started = None
        self.samples = []

    def warm_up(self):
        """Import the package once untimed so that its bytecode cache exists,
        as it does for any user after the first run; the run starts after."""
        subprocess.run(
            [sys.executable, "-c", "import dwropt.cli"],
            cwd=self.root, env=self.env(), check=True, timeout=60,
        )
        self.started = time.monotonic()

    def env(self):
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def elapsed(self):
        return time.monotonic() - self.started

    def sample(self, trace=False):
        """Run one fresh process; returns a record with ``failed`` set and,
        when the process finished, its timings and checked outputs."""
        index = len(self.samples)
        out = self.work / f"out-{index}"
        result_path = self.work / f"result-{index}.json"
        record = {"failed": True}
        self.samples.append(record)
        try:
            return self._sample(record, trace, out, result_path)
        finally:
            shown = ("failed", "error", "wall_s", "setup_s", "estimator_s",
                     "cycles", "stop", "final_rel_error_pct", "peak_rss_mb")
            print("sample: " + json.dumps({k: record[k] for k in shown if k in record}),
                  file=sys.stderr)

    def _sample(self, record, trace, out, result_path):
        w = self.workload
        argv = [
            sys.executable, str(HERE / "child.py"), str(result_path), "",
            "1" if trace else "0", str(w.max_cycles),
            w.command, w.config, str(out), str(self.seed),
        ]
        timeout = HARD_LIMIT_S - self.elapsed()
        if timeout <= 0:
            record["error"] = "no time left in the run"
            return record
        argv[3] = repr(time.monotonic())
        try:
            proc = subprocess.run(
                argv, cwd=self.root, env=self.env(), capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            record["error"] = f"timed out after {timeout:.0f} s"
            return record
        if proc.returncode != 0 or not result_path.exists():
            record["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
            return record
        result = json.loads(result_path.read_text())
        record.update(result)
        if result["exit_code"] != 0:
            record["error"] = f"dwropt exit {result['exit_code']}: {proc.stderr.strip()[-500:]}"
            return record
        try:
            record.update(CHECKS[w.command](out, result, self.pinned))
            if trace:
                check_counts(result["layers"], expected_counts(
                    w.command, record["n_cells"], record["cycles"], record["max_cycles"]
                ))
        except (CheckFailed, KeyError, IndexError, ValueError, OSError) as exc:
            record["error"] = f"output check: {exc!r}"
            return record
        finally:
            shutil.rmtree(out, ignore_errors=True)
        record["failed"] = False
        return record


def _median(records, key):
    values = [r[key] for r in records if r.get(key) is not None]
    return statistics.median(values) if values else 0.0


def untraced_metrics(runner, seconds):
    runner.sample()
    while runner.elapsed() < seconds:
        runner.sample()
    good = [r for r in runner.samples if not r["failed"]] or runner.samples
    for r in good:
        if r.get("cycles"):
            r["cycle_s"] = r["estimator_s"] / r["cycles"]
    metrics = {
        "wall_s": _median(good, "wall_s"),
        "setup_s": _median(good, "setup_s"),
        "estimator_s": _median(good, "estimator_s"),
        "cycle_s": _median(good, "cycle_s"),
        "peak_rss_mb": _median(good, "peak_rss_mb"),
        "cycles": _median(good, "cycles"),
    }
    return {name: {"value": metrics[name], "unit": END_TO_END[name]} for name in END_TO_END}


def traced_metrics(runner):
    layers = runner.sample(trace=True).get("layers") or {}
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}


def run(name, seed, seconds, trace, root, pins=None):
    """One benchmark run; returns the result object printed as the last line."""
    workload = WORKLOADS[name]
    if pins is None:
        pins = json.loads((HERE / "pins.json").read_text())
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    runner = Runner(root, workload, seed, pins, work)
    try:
        runner.warm_up()
        metrics = traced_metrics(runner) if trace else untraced_metrics(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    failures = [r for r in runner.samples if r["failed"]]
    return {
        "correct": not failures,
        "attempted": len(runner.samples),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Exit through SystemExit on SIGTERM, so that subprocess.run kills and
    # reaps a running sample.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    for needed in (root / "src" / "dwropt" / "cli.py", root / workload.config):
        if not needed.is_file():
            print(f"benchmark: {needed} not found; run from a dwropt checkout", file=sys.stderr)
            return 2

    import machine

    print("machine: " + json.dumps(machine.notes()), file=sys.stderr)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
