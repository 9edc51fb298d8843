"""Paired benchmark of two dwropt checkouts.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --label NAME \
        [--workload diffusion_small:5 ...] [--claim advdiff_small:wall_s] \
        [--change-text TEXT] [--tolerance FILE.json]

Runs ``python3 perfbench/run.py --workload W --seed S --seconds N --trace 0``
inside each checkout for every ``W:S`` of ``--workload`` (default
``WORKLOADS``), with N the ``run_seconds`` of the change's
``BENCHMARK.json``, in ``PAIRS`` pairs that alternate which side runs first
(odd pairs start with the parent), one process at a time.  Then it makes one
traced run (``--seconds 1 --trace 1``) per side and workload.  It writes
``BENCH_<label>.json`` into the current directory with, per workload and
end-to-end metric, the median and quartiles (inclusive method) of the run
values on each side, the per-run values, and how many pairs the change read
better or worse.  The file also holds the traced layers, the time per patch
enhancement outside its factorization (``outside_factor_s_per_call``,
``(dwr.local_enhancement.s - fem.factor.patch.s) / calls``, also printed),
the machine notes of ``perfbench/machine.py`` and, with ``--tolerance``, a
JSON object stating how far the outputs of the two sides differ.  Nothing
under ``perfbench/`` is changed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
WORKLOADS = ("diffusion_small:1", "advdiff_small:21", "estimate_small:1")
TRACED = (
    "mesh.micro_grid.calls",
    "mesh.micro_grid.nodes",
    "field.coefficient.s",
    "field.coefficient.points",
    "field.advection.s",
    "field.advection.points",
    "fem.assemble.diffusion.calls",
    "fem.assemble.advection.calls",
    "fem.evaluate.s",
    "fem.evaluate.points",
    "fem.forms.s",
    "fem.forms.calls",
    "fem.factor.patch.s",
    "fem.factor.patch.count",
    "fem.factor.patch.lu_nnz",
    "fem.factor.macro.s",
    "fem.factor.macro.count",
    "fem.factor.fine.s",
    "fem.factor.fine.count",
    "fem.factor.fine.lu_nnz",
    "fem.factor.lu_bytes",
    "fem.solve.s",
    "fem.solve.count",
    "dwr.local_enhancement.s",
    "dwr.local_enhancement.self_s",
    "dwr.local_enhancement.calls",
    "dwr.error_identity.s",
    "optim.assemble_system.s",
    "optim.assemble_system.self_s",
    "optim.response_U.s",
    "optim.response_U.calls",
)


def outside_factor_per_call(layers):
    """Seconds per patch enhancement spent outside its factorization:
    (dwr.local_enhancement.s - fem.factor.patch.s) / calls."""
    calls = layers["dwr.local_enhancement.calls"]
    if not calls:
        return None
    return (layers["dwr.local_enhancement.s"] - layers["fem.factor.patch.s"]) / calls


def run_once(root, workload, seed, seconds, trace):
    """The result object that ``perfbench/run.py`` prints as its last line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(parent_runs, change_runs, better):
    """Summary of one metric over the pairs."""
    sign = 1.0 if better == "lower" else -1.0
    diffs = [sign * (c - p) for p, c in zip(parent_runs, change_runs)]
    return {
        "parent": quartiles(parent_runs),
        "change": quartiles(change_runs),
        "change_better_pairs": sum(d < 0 for d in diffs),
        "change_worse_pairs": sum(d > 0 for d in diffs),
        "parent_runs": parent_runs,
        "change_runs": change_runs,
    }


def claim_text(workloads, workload, metric, unit):
    m = workloads[workload]["metrics"][metric]
    p, c = m["parent"], m["change"]
    return (
        f"{metric} on {workload}: parent median {p['median']} {unit} (q1 {p['q1']}, "
        f"q3 {p['q3']}), change {c['median']} {unit}; the change won "
        f"{m['change_better_pairs']} of {len(m['parent_runs'])} pairs and the medians "
        f"differ by {abs(p['median'] - c['median']):.4g} {unit} against a parent IQR of "
        f"{p['q3'] - p['q1']:.4g} {unit}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", action="append", help="NAME:SEED (default: WORKLOADS)")
    parser.add_argument("--claim", action="append", default=[], help="WORKLOAD:METRIC")
    parser.add_argument("--change-text", default="", help="one line on what changed")
    parser.add_argument("--tolerance", type=Path, help="JSON object on output differences")
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    workloads, traced = {}, {}
    specs = args.workload or WORKLOADS
    for spec in specs:
        name, seed = spec.split(":")
        runs = {"parent": [], "change": []}
        for pair in range(1, PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result = run_once(roots[side], name, seed, seconds, trace=False)
                runs[side].append(result)
                values = {k: v["value"] for k, v in result["metrics"].items()}
                print(f"{name} pair {pair} {side}: {json.dumps(values)}", file=sys.stderr)
        workloads[name] = {
            "pairs": PAIRS,
            "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
            "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
            "metrics": {
                metric: compare(
                    [r["metrics"][metric]["value"] for r in runs["parent"]],
                    [r["metrics"][metric]["value"] for r in runs["change"]],
                    better[metric],
                )
                for metric in better
            },
        }
        traced[name] = {}
        for side in ("parent", "change"):
            result = run_once(roots[side], name, seed, 1, trace=True)
            layers = {k: v["value"] for k, v in result["metrics"].items()}
            traced[name][side] = {"correct": result["correct"]}
            traced[name][side].update((k, layers[k]) for k in TRACED if k in layers)
            outside = outside_factor_per_call(layers)
            traced[name][side]["outside_factor_s_per_call"] = outside
            if outside is not None:
                print(f"{name} {side}: {1e3 * outside:.2f} ms per local_enhancement outside "
                      "its factorization", file=sys.stderr)

    notes = subprocess.run(
        [sys.executable, "perfbench/machine.py"], cwd=roots["change"],
        capture_output=True, text=True, check=True,
    )
    seeds = ", ".join(spec.replace(":", " seed ") for spec in specs)
    record = {
        "change": args.change_text,
        "method": (
            f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
            f"--trace 0 in each checkout, {PAIRS} pairs per workload, alternating which "
            f"side runs first (odd pairs parent first), written by scripts/bench_pairs.py. "
            f"Workloads: {seeds}. Each value is the run's median over its samples; "
            "median/q1/q3 are taken over the runs. change_better_pairs counts pairs where "
            "the change read better. Traced values: one --seconds 1 --trace 1 run per side "
            "and workload."
        ),
        "claim": "; ".join(
            claim_text(workloads, w, m, units[m]) for w, m in (c.split(":") for c in args.claim)
        ),
        "workloads": workloads,
        "traced": traced,
        "history_tolerance": json.loads(args.tolerance.read_text()) if args.tolerance else None,
        "machine": json.loads(notes.stdout),
    }
    out = Path.cwd() / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
