"""The benchmark's workloads.

Each workload class is built from the imported ``kernelgames`` package and a
seed; building it is the workload's set-up (seeded input generation).  ``op(i)``
runs op ``i`` and returns its verdicts, a tuple of booleans judged by the
library's own criteria, plus a float digest of its numbers.  Op ``i``'s inputs
depend only on the seed and ``i``.  The library is always called through
module attributes, so a tracer installed on those attributes sees every call.

Why these three (see also BENCHMARK.json):

* ``design_scan``       -- the scan oracle, ``design.targeted_grid_scan`` at its
                           full 1M-point size; touches no game or Monte Carlo.
* ``equilibrium_dense`` -- info construction, dense coefficient solve and the
                           moment checks at n = 400; LAPACK-bound.
* ``reproduce_quick``   -- the eleven batteries at ``QUICK_KWARGS``, what users
                           run; many small solves where Python overhead counts,
                           and two thirds of its time in the Monte Carlo layer
                           (best-response audits and sampling).
"""

from __future__ import annotations

import inspect
import math

import numpy as np


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


class DesignScan:
    """One seeded (r, alpha, beta) triple per op, judged as in
    ``checks.check_targeted_optimum``: closed form vs the grid scan."""

    name = "design_scan"
    targets = ("design",)
    trace_ops = 100

    def __init__(self, kg, seed: int, points: int = 1_000_000):
        self.kg = kg
        self.seed = seed
        self.points = points

    def op(self, i: int):
        design = self.kg.design
        rng = _rng(self.seed, i)
        r = rng.uniform(-2.0, 0.75)
        alpha = rng.uniform(-2.0, 2.0)
        beta = rng.uniform(-2.0, 2.0)
        obj = self.kg.moments.DesignObjective(-beta, alpha, 0.0)
        rep = design.optimal_targeted(r, obj)
        m_scan, v_scan = design.targeted_grid_scan(r, obj, self.points)
        value_ok = abs(rep.v_star - v_scan) / (1.0 + abs(rep.v_star)) <= 1e-9
        arg_ok = (rep.regime == "boundary"
                  or abs(rep.m_star - m_scan) <= 2.0 / (self.points - 1))
        return (value_ok, arg_ok), m_scan + v_scan


class EquilibriumDense:
    """A seeded random information structure per op on a constant-kernel game,
    solved and checked for moments, positivity and the feasibility bounds."""

    name = "equilibrium_dense"
    targets = ("game", "kernels", "moments", "linalg")
    trace_ops = 20
    RS = (-2.0, 0.0, 0.5, 0.9)

    def __init__(self, kg, seed: int, n: int = 400):
        self.kg = kg
        self.seed = seed
        grid = kg.grid.uniform_grid(n)
        self.games = [kg.game.common_state_game(
            grid, kg.kernels.constant_kernel(grid, r), 0.0, 1.0)
            for r in self.RS]

    def op(self, i: int):
        kg = self.kg
        r, g = self.RS[i % len(self.RS)], self.games[i % len(self.RS)]
        info = kg.design._random_info(g, _rng(self.seed, i))
        eq = kg.game.solve_linear_equilibrium(g, info)
        mrep = kg.game.verify_moment_restrictions(eq, g)
        mom = kg.design.moment_from_equilibrium(eq)
        pos = kg.moments.check_positivity(mom)
        bounds = kg.moments.bounds_check(mom, r)
        return ((mrep.passed, bool(pos), bounds.passed),
                float(np.sum(eq.loading_vector())) + mrep.max_residual)


class ReproduceQuick:
    """One pass of the eleven batteries at ``checks.QUICK_KWARGS`` per op.

    Batteries that take a seed get their default seed plus the workload seed,
    so seed 0 reproduces ``kernelgames reproduce-all --quick`` exactly.  Every
    op of a run repeats the same pass.
    """

    name = "reproduce_quick"
    # all library layers: the traced share shows what the bench itself adds
    targets = ("checks", "design", "game", "kernels", "moments", "montecarlo",
               "grid", "linalg")
    trace_ops = 1

    def __init__(self, kg, seed: int, overrides: dict = None):
        self.kg = kg
        checks = kg.checks
        self.calls = []
        for battery, fn in checks.ALL_CHECKS.items():
            kwargs = dict(checks.QUICK_KWARGS.get(battery, {}))
            kwargs.update((overrides or {}).get(battery, {}))
            default = inspect.signature(fn).parameters.get("seed")
            if default is not None and seed:
                kwargs["seed"] = kwargs.get("seed", default.default) + seed
            self.calls.append((fn.__name__, kwargs))

    def op(self, i: int):
        checks = self.kg.checks
        results = [getattr(checks, fname)(**kwargs)
                   for fname, kwargs in self.calls]
        digest = 0.0
        for res in results:
            for v in res.stats.values():
                if isinstance(v, (int, float)) and math.isfinite(v):
                    digest += float(v)
        return tuple(bool(res.passed) for res in results), digest


WORKLOADS = {w.name: w for w in (DesignScan, EquilibriumDense,
                                 ReproduceQuick)}

# Sizes small enough for the bench's own smoke tests.
TINY = {
    "design_scan": dict(points=20_001),
    "equilibrium_dense": dict(n=24),
    "reproduce_quick": dict(overrides={
        "targeted_optimum": dict(triples=3, points=20_001),
        "targeted_equilibrium": dict(n=12),
        "global_audit": dict(samples=8, n=12),
        "uniqueness": dict(n_games=1, n=8, starts=1, dup_draws=2_000),
        "spectral_suite": dict(n_kernels=3, n_pairs=3),
        "pettis_calculus": dict(n_procs=1, draws=5_000),
        "bm_example": dict(n=12, draws=2_000),
        "feasibility_necessity": dict(n_eqs=4),
    }),
}
