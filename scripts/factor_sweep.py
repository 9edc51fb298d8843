"""Sweep of the elimination-order and SuperLU options behind the patch factors.

    python3 scripts/factor_sweep.py [--rounds 5] [--record BENCH_NAME.json]

Builds the depth-1 patch blocks of one indicator sweep of
``configs/diffusion_small.ini`` and ``configs/advdiff_small.ini`` (their
default seeds) and factors every block of a workload with each variant:

- ``mmd_kept_order``: the path the nested-dissection order replaced.  The
  first block of each set of constrained nodes is factored with
  ``MMD_AT_PLUS_A``, later ones in its elimination order with ``NATURAL``.
- ``nd<leaf> r<relax> p<panel_size>``: the free nodes in
  :func:`dwropt.fem.nested_dissection` order with that leaf, factored with
  ``NATURAL`` and SuperLU's ``relax`` and ``panel_size`` (``-`` for
  SuperLU's default).

Only ``splu`` is timed; the blocks are extracted beforehand, in the order
each variant factors them.  The variants run one after another in every
round.  Per variant the record holds the median and quartiles over the
rounds of the time to factor all blocks of the workload, and of its ratio to
the ``mmd_kept_order`` time of the same round (the paired figure, less
exposed to a machine whose load drifts).  The script also times the
nested-dissection build of each lattice shape the shipped configs factor.
The result is printed as JSON; with ``--record`` it is also stored under
``factor_sweep`` in that (existing) benchmark record.
"""

import argparse
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import splu

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dwropt.cli import ExperimentConfig, build_problem, read_config  # noqa: E402
from dwropt.dwr import _fine_data  # noqa: E402
from dwropt.fem import diffusion_element_matrices, element_operator, nested_dissection  # noqa: E402

WORKLOADS = ("diffusion_small", "advdiff_small")
BASELINE = "mmd_kept_order"
LEAVES = (2, 3, 4, 6)
RELAX = (None, 1, 2)
PANEL_SIZES = (None, 2, 4)


def patch_blocks(config):
    """(CSR matrix, space) of every depth-1 patch of one sweep, cell order."""
    problem, _ = build_problem(read_config(ExperimentConfig.from_ini(config)))
    hierarchy = problem.hierarchy
    blocks = []
    for k in range(hierarchy.n_sampling):
        grid = hierarchy.micro_grid(hierarchy.patch_of(k, 1).bbox)
        a_eps, fluct = _fine_data(problem, grid)
        elem = diffusion_element_matrices(grid, a_eps)
        if fluct is not None:
            elem = elem + fluct
        op = element_operator(problem.space(grid), elem)
        blocks.append((op.matrix, op.space))
    return blocks


def dissection_order(space, leaf):
    grid = space.grid
    order = nested_dissection(grid.nx + 1, grid.ny + 1, leaf)
    return order[np.isin(order, space.free_nodes)]


def kept_orders(blocks):
    """The free nodes of each block in the order the replaced path factored
    them: natural for the first block of a constrained set, that block's
    minimum-degree order for the rest."""
    kept, orders = {}, []
    for matrix, space in blocks:
        key = space.dirichlet_nodes.tobytes()
        if key in kept:
            orders.append((kept[key], "NATURAL"))
            continue
        free = space.free_nodes
        lu = splu(matrix[free][:, free].tocsc(), permc_spec="MMD_AT_PLUS_A")
        kept[key] = free[np.argsort(lu.perm_c)]
        orders.append((free, "MMD_AT_PLUS_A"))
    return orders


def variants(blocks):
    """label -> (settings, [(CSC block, permc_spec, splu options)])."""
    out = {BASELINE: ({}, [
        (matrix[free][:, free].tocsc(), spec, {})
        for (matrix, _), (free, spec) in zip(blocks, kept_orders(blocks))
    ])}
    for leaf in LEAVES:
        extracted = [
            matrix[order][:, order].tocsc()
            for matrix, space in blocks
            for order in [dissection_order(space, leaf)]
        ]
        # the largest leaf fills visibly more: it runs with SuperLU's defaults only
        options = itertools.product(RELAX, PANEL_SIZES) if leaf != LEAVES[-1] else [(None, None)]
        for relax, panel in options:
            label = f"nd{leaf} r{relax or '-'} p{panel or '-'}"
            kw = {k: v for k, v in (("relax", relax), ("panel_size", panel)) if v is not None}
            settings = {"leaf": leaf, "relax": relax, "panel_size": panel}
            out[label] = (settings, [(a, "NATURAL", kw) for a in extracted])
    return out


def factor_all(entries):
    start = time.perf_counter()
    nnz = sum(splu(a, permc_spec=spec, **kw).nnz for a, spec, kw in entries)
    return time.perf_counter() - start, nnz


def quartiles(values, digits):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return round(median, digits), round(q1, digits), round(q3, digits)


def sweep(config, rounds):
    blocks = patch_blocks(config)
    runs = variants(blocks)
    times = {label: [] for label in runs}
    ratios = {label: [] for label in runs}
    nnz = {}
    for _ in range(rounds):
        seconds = {}
        for label, (_, entries) in runs.items():
            seconds[label], nnz[label] = factor_all(entries)
            times[label].append(seconds[label])
        for label in runs:
            ratios[label].append(seconds[label] / seconds[BASELINE])
    result = {}
    for label, (settings, _) in runs.items():
        median, q1, q3 = quartiles(times[label], 4)
        ratio, ratio_q1, ratio_q3 = quartiles(ratios[label], 3)
        result[label] = dict(
            settings, median_s=median, q1_s=q1, q3_s=q3, ratio=ratio, ratio_q1=ratio_q1,
            ratio_q3=ratio_q3, lu_nnz=nnz[label],
        )
    return {
        "blocks": len(blocks),
        "free_dofs": int(sum(space.free_nodes.size for _, space in blocks)),
        "variants": result,
    }


def build_times(shapes, rounds):
    """Median seconds of one nested-dissection build per shape."""
    out = {}
    for n_x, n_y in shapes:
        samples = []
        for _ in range(rounds):
            start = time.perf_counter()
            nested_dissection(n_x, n_y)
            samples.append(time.perf_counter() - start)
        out[f"{n_x}x{n_y}"] = round(statistics.median(samples), 5)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--record", type=Path, help="BENCH_*.json to store the sweep in")
    args = parser.parse_args(argv)
    record = {
        "method": (
            f"python3 scripts/factor_sweep.py --rounds {args.rounds}: splu of every depth-1 "
            "patch block of one sweep, per variant; median/q1/q3 over the rounds, the "
            "variants interleaved in each round"
        ),
        "workloads": {
            name: sweep(ROOT / "configs" / f"{name}.ini", args.rounds) for name in WORKLOADS
        },
        # the patch lattices of both configs, then their macro and fine ones
        "nd_build_s": build_times(
            [(97, 97), (65, 97), (97, 65), (65, 65), (33, 33), (33, 65), (257, 257), (129, 257)],
            args.rounds,
        ),
    }
    text = json.dumps(record, indent=1)
    print(text)
    if args.record:
        bench = json.loads(args.record.read_text())
        bench["factor_sweep"] = record
        args.record.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
