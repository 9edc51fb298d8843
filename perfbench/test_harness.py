"""Self-test of the benchmark harness, on configs/diffusion_tiny.ini.

    python3 -m pytest -q perfbench/test_harness.py

Takes about 20 s.  It drives the harness once untraced and once traced and
checks that a wrong expected value makes a failed run.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = bench.WORKLOADS["diffusion_tiny"]


def _run_benchmark(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _pins():
    return json.loads((ROOT / "perfbench" / "pins.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_reports_every_metric_with_its_unit(trace, section):
    proc = _run_benchmark(
        "--workload", TINY.name, "--seed", str(TINY.default_seed),
        "--seconds", "1", "--trace", str(trace),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrong_pinned_value_is_a_failed_run():
    pins = _pins()
    pins[TINY.name][str(TINY.default_seed)]["history"][2]["theta_tilde"] *= (
        1.0 + 1e3 * bench.RTOL
    )
    result = bench.run(TINY.name, TINY.default_seed, 1, False, ROOT, pins=pins)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_wrong_expected_count_is_a_failed_traced_run(monkeypatch):
    counts = bench.expected_counts

    def one_patch_too_many(*args):
        expected = counts(*args)
        expected["fem.factor.patch.count"] += 1
        return expected

    monkeypatch.setattr(bench, "expected_counts", one_patch_too_many)
    result = bench.run(TINY.name, TINY.default_seed, 1, True, ROOT)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _run_benchmark(
        "--workload", TINY.name, "--seed", "7", "--seconds", "1", "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_self_time_and_reentry():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.02))

    def body(depth):
        leaf()
        if depth:
            outer(depth - 1)

    outer = tracer.wrap("outer", body)
    outer(1)
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf"]  # the re-entered "outer" records nothing
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    (name, start, end, _, _), *leaves = tracer.spans
    self_time = (end - start) - sum(e - s for _, s, e, _, _ in leaves)
    assert 0.0 <= self_time < 0.02
    assert 0.0 < spans.span_cost() < 1e-3
