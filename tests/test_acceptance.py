"""End-to-end acceptance battery.

Each test runs one of the full-scale verification checks from
``kernelgames.checks`` and prints a one-line summary; the same code paths
back the CLI's ``reproduce-all`` command.  Every result must also match its
recorded statistics in ``battery_stats_full.json`` (see
``test_battery_stats.py``).
"""

import json
import time
from pathlib import Path

from test_battery_stats import assert_matches

from kernelgames import checks

REFERENCE = {r["name"]: r for r in json.loads(
    Path(__file__).with_name("battery_stats_full.json").read_text())}


def _run(fn, **kwargs):
    t0 = time.time()
    res = fn(**kwargs)
    dt = time.time() - t0
    status = "PASS" if res.passed else "FAIL"
    print(f"{status}  {res.name}  ({dt:.1f}s)  {res.stats}")
    assert_matches(res.as_dict(), REFERENCE[res.name], res.name)
    return res, dt


def test_01_targeted_optimum_vs_grid_scan():
    res, dt = _run(checks.check_targeted_optimum,
                   triples=10_000, points=1_000_000)
    assert res.passed
    assert dt <= 60.0


def test_02_targeted_equilibrium_closed_form():
    res, _ = _run(checks.check_targeted_equilibrium, n=200)
    assert res.passed


def test_03_global_optimality_audit():
    res, dt = _run(checks.check_global_audit, samples=500, n=100)
    assert res.passed
    assert dt <= 300.0


def test_04_symmetric_equivalence():
    res, _ = _run(checks.check_symmetric_equivalence, ns=(100, 200, 400))
    assert res.passed


def test_05_public_disclosure_gap():
    res, _ = _run(checks.check_public_gap, points=200)
    assert res.passed


def test_06_cournot_boundary_raster():
    res, _ = _run(checks.check_cournot_raster, resolution=200)
    assert res.passed
    assert res.stats["misclassified"] == 0


def test_07_uniqueness_and_multiplicity():
    res, dt = _run(checks.check_uniqueness, n_games=20, starts=5,
                   dup_draws=100_000)
    assert res.passed
    assert dt <= 600.0


def test_08_spectral_lemma_suite():
    res, _ = _run(checks.check_spectral_suite, n_kernels=50, n_pairs=100)
    assert res.passed
    assert res.stats["hadamard_violations"] == 0


def test_09_aggregation_calculus():
    res, _ = _run(checks.check_pettis, n_procs=20, draws=100_000)
    assert res.passed


def test_10_lqg_example_reproduction():
    res, _ = _run(checks.check_bm_example, n=200, draws=100_000)
    assert res.passed
    assert res.stats["dev_discretized"] <= 1e-6
    assert res.stats["moment_residual"] <= 1e-8


def test_11_moment_feasibility_necessity():
    res, _ = _run(checks.check_feasibility_necessity, n_eqs=100)
    assert res.passed
