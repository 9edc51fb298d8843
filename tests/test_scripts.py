"""Smoke tests of the scripts under ``scripts/``: each still runs against the
package internals it imports."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from dwropt import dwr
from dwropt.cli import ExperimentConfig, build_problem, main, read_config
from dwropt.fem import DiscreteField, element_operator

ROOT = Path(__file__).resolve().parent.parent


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_factor_sweep_blocks_are_the_factored_patch_matrices(monkeypatch):
    # one block per sampling cell, each the matrix that the depth-1 patch
    # enhancement of that cell factors, bit for bit
    factor_sweep = load_script("factor_sweep")
    config = ROOT / "configs" / "diffusion_tiny.ini"
    blocks = factor_sweep.patch_blocks(config)

    factored = []

    def recording(space, elem):
        factored.append(element_operator(space, elem))
        return factored[-1]

    monkeypatch.setattr(dwr, "element_operator", recording)
    problem, _ = build_problem(read_config(ExperimentConfig.from_ini(config)))
    macro = problem.macro_space()
    z_eff = DiscreteField(macro, np.zeros(macro.n_dofs))
    for k in range(problem.hierarchy.n_sampling):
        dwr.local_enhancement(problem, z_eff, k, 1)
    assert len(blocks) == len(factored) == problem.hierarchy.n_sampling
    for (matrix, space), op in zip(blocks, factored):
        assert op.factorization_count == 1
        assert np.array_equal(space.dirichlet_nodes, op.space.dirichlet_nodes)
        assert np.array_equal(matrix.indptr, op.matrix.indptr)
        assert np.array_equal(matrix.indices, op.matrix.indices)
        assert np.array_equal(matrix.data, op.matrix.data)


def test_reference_memory_prints_the_reference_qoi(tmp_path, capsys):
    # one JSON line from a fresh process: exit 0, a peak RSS and a wall time,
    # and the QoI as the text of `dwropt reference`'s reference_qoi.txt;
    # with a dof cap below the fine grid, the child's exit code 4
    reference_memory = load_script("reference_memory")
    config = ROOT / "configs" / "diffusion_tiny.ini"
    assert reference_memory.main([str(config)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["exit_code"] == 0 and record["peak_rss_mb"] > 0 and record["wall_s"] > 0
    assert main(["reference", str(config), "--out", str(tmp_path)]) == 0
    assert (record["qoi"] + "\n").encode() == (tmp_path / "reference_qoi.txt").read_bytes()
    capsys.readouterr()
    assert reference_memory.main([str(config), "--dof-cap", "100"]) == 4
    record = json.loads(capsys.readouterr().out)
    assert record["qoi"] is None and "resource cap" in record["stderr"]
