"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

Tiny-size smoke runs of every workload, seed determinism of the generated
inputs, the self-time arithmetic on a synthetic span tree, the tracer's
install/uninstall, and the output contract of ``run.py``.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import kernelgames as kg  # noqa: E402
import kernelgames.checks  # noqa: E402,F401
import run  # noqa: E402
from spans import Span, Tracer, covered, layer_metrics, self_times  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

BATTERIES = {b: fn.__name__ for b, fn in kg.checks.ALL_CHECKS.items()}


def _bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# --- self-time arithmetic ---------------------------------------------------

def test_covered_merges_overlaps_and_skips_empty():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)


def test_self_time_on_synthetic_tree():
    spans = [
        Span("bench.op", "untraced", -1, 0, 0.0, 10.0),
        Span("game.solve_linear_equilibrium", "game", 0, 0, 1.0, 4.0),
        Span("linalg.solve", "linalg", 1, 0, 2.0, 3.0),
        Span("kernels.eigenvalues", "kernels", 0, 0, 3.5, 6.0),  # overlaps
        Span("grid.uniform_grid", "grid", 0, 0, 9.0, 12.0),      # overhangs
    ]
    # root: 10 - |[1,6] u [9,10]| = 4; children cover only inside the parent
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])
    m = layer_metrics(spans, BATTERIES)
    assert m["untraced.self_s"][0] == pytest.approx(4.0)
    assert m["game.self_s"][0] == pytest.approx(2.0)
    assert m["linalg.solve.self_s"][0] == pytest.approx(1.0)
    assert m["linalg.decompositions_per_solve"][0] == 1.0
    assert m["kernels.eigen_calls_per_solve"][0] == 0.0


def test_layer_self_times_add_up_to_traced_wall():
    spans = [Span("bench.op", "untraced", -1, 0, 0.0, 5.0),
             Span("design.targeted_grid_scan", "design", 0, 0, 0.5, 4.0,
                  work=1000),
             Span("moments.check_positivity", "moments", 0, 0, 4.0, 4.5),
             Span("linalg.eigvalsh", "linalg", 2, 0, 4.1, 4.2, error=True)]
    m = layer_metrics(spans, BATTERIES)
    layers = [k for k in m if k.endswith(".self_s") and k.count(".") == 1]
    assert sum(m[k][0] for k in layers) == pytest.approx(5.0)
    assert m["design.scan_points"][0] == 1000
    assert m["linalg.errors"][0] == 1


# --- tracer -----------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores():
    original = kg.game.solve_linear_equilibrium
    grid = kg.grid.uniform_grid(5)
    g = kg.game.common_state_game(
        grid, kg.kernels.constant_kernel(grid, 0.5), 0.0, 1.0)
    tracer = Tracer()
    tracer.install(kg, np.linalg)
    try:
        wrapped = kg.game.solve_linear_equilibrium
        assert wrapped is not original
        assert kg.design.solve_linear_equilibrium is wrapped
        assert kg.solve_linear_equilibrium is wrapped
        assert kg.game.eigenvalues is kg.kernels.eigenvalues
        with tracer.op(0):
            info = kg.game.private_iid_info(g, 0.5)
            kg.game.solve_linear_equilibrium(g, info)
    finally:
        tracer.uninstall()
    assert kg.game.solve_linear_equilibrium is original
    assert np.linalg.solve.__module__.startswith("numpy")
    m = layer_metrics(tracer.spans, BATTERIES)
    assert m["game.solve_linear_equilibrium.calls"][0] == 1
    assert m["game.coefficients"][0] == 5
    assert m["game.info.calls"][0] == 1
    assert m["kernels.eigen_calls_per_solve"][0] == 1.0
    assert m["linalg.solve.calls"][0] == 2        # coefficients and mean
    assert all(s.op == 0 for s in tracer.spans)
    assert tracer.spans[0].name == "bench.op"


# --- workloads ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_ops_pass(name):
    wl = WORKLOADS[name](kg, 3, **TINY[name])
    for i in range(2):
        verdicts, digest = wl.op(i)
        assert verdicts and all(verdicts), (name, i, verdicts)
        assert np.isfinite(digest)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_change_with_it(name):
    def digests(seed):
        wl = WORKLOADS[name](kg, seed, **TINY[name])
        return [wl.op(i)[1] for i in range(2)]
    assert digests(5) == digests(5)
    assert digests(5) != digests(6)


def test_default_seed_reproduces_quick_kwargs():
    wl = WORKLOADS["reproduce_quick"](kg, 0)
    assert [kw for _, kw in wl.calls] == [
        kg.checks.QUICK_KWARGS.get(b, {}) for b in kg.checks.ALL_CHECKS]
    seeded = dict(WORKLOADS["reproduce_quick"](kg, 4).calls)
    assert seeded["check_pettis"]["seed"] == 99 + 4


def test_tail_percentile_rule():
    assert run.tail_percentile(250) == 90.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(5) == 50.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5


# --- run.py output contract -----------------------------------------------------

def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, section):
    proc = _run(["--workload", "design_scan", "--seed", "1",
                 "--seconds", "0.5", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _bench_config()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "design_scan", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
