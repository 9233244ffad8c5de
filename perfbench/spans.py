"""Span tracing of the kernelgames layers, installed from outside the library.

``Tracer.install`` replaces every public function of every ``kernelgames``
module, in every module namespace that binds it, with a wrapper that records
a span (name, layer, start, end, parent, op id).  The ``numpy.linalg`` entry
points the library calls are wrapped the same way as the ``linalg`` layer.
Spans stay in memory; ``layer_metrics`` turns them into per-layer self times
and exact work counts, and ``write_spans`` dumps them when the run ends.

A layer's self time is its spans' durations minus the part of each span that
its child spans cover, so the layers' self times add up to the traced wall
time of the ops.  The bench's own op span is the ``untraced`` layer: its self
time is whatever ran in no wrapped function.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("grid", "kernels", "game", "moments", "design", "montecarlo",
          "checks", "linalg")
LINALG = ("eigh", "eigvalsh", "eig", "eigvals", "solve", "lstsq")
INFO_CONSTRUCTORS = ("no_info", "full_info", "public_info", "private_iid_info",
                     "targeted_info", "info_from_parts")
AGGREGATE = ("verify_aggregate_mean", "verify_aggregate_variance",
             "verify_conditional_fubini", "covariance_exchange_residual")
OP_SPAN = "bench.op"
SOLVE = "game.solve_linear_equilibrium"


@dataclass
class Span:
    name: str
    layer: str
    parent: int          # index into the span list, -1 for a root
    op: int
    start: float = 0.0
    end: float = 0.0
    work: float = 0.0    # exact work count derived from the arguments
    error: bool = False


def _linalg_flops(name: str, args, kwargs) -> float:
    """Nominal LAPACK flop count from operand shapes (computed, not measured)."""
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0.0
    batch = math.prod(shape[:-2])
    m, n = shape[-2], shape[-1]
    if name == "eigvalsh":
        per = 4.0 / 3.0 * n ** 3
    elif name == "eigh":
        per = 9.0 * n ** 3
    elif name == "eigvals":
        per = 10.0 * n ** 3
    elif name == "eig":
        per = 25.0 * n ** 3
    elif name == "solve":
        b = args[1] if len(args) > 1 else kwargs.get("b")
        bshape = getattr(b, "shape", ())
        nrhs = 1 if len(bshape) <= 1 else bshape[-1]
        per = 2.0 / 3.0 * n ** 3 + 2.0 * n * n * nrhs
    else:  # lstsq, Householder QR count of the tall orientation
        m, n = max(m, n), min(m, n)
        per = 2.0 * m * n * n - 2.0 / 3.0 * n ** 3
    return batch * per


# exact work of one call, from its bound arguments
WORK = {
    "design.targeted_grid_scan": lambda a: a["points"],
    SOLVE: lambda a: a["info"].total_dim,
    "montecarlo.sample_gaussian": lambda a: int(a["d"]) * len(a["mean"]),
    "montecarlo.best_response_audit": lambda a: int(a["d"]) * a["game"].grid.n,
}


def _work_counter(name: str, fn):
    """Work count of one call of ``name`` from its arguments, or None."""
    count = WORK.get(name)
    if count is None:
        return None
    sig = inspect.signature(fn)

    def work(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(count(bound.arguments))
    return work


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.clock = time.perf_counter
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple] = []

    def wrap(self, fn, name: str, layer: str, work=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else -1, self._op)
            if work is not None:
                span.work = work(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = clock()
                stack.pop()
        return traced

    @contextmanager
    def op(self, op_id: int):
        """Root span of one bench op; its self time is the untraced remainder."""
        self._op = op_id
        span = Span(OP_SPAN, "untraced", -1, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            yield
        finally:
            span.end = self.clock()
            self._stack.pop()
            self._op = -1

    def install(self, package, linalg) -> None:
        """Wrap the package's public functions wherever they are bound, and
        the ``linalg`` entry points named in ``LINALG``."""
        prefix = package.__name__ + "."
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(prefix))]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__name__.startswith("_")
                        or not obj.__module__.startswith(prefix)):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__[len(prefix):]
                    name = f"{layer}.{obj.__name__}"
                    wrappers[obj] = self.wrap(obj, name, layer,
                                              _work_counter(name, obj))
                self._restore.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])
        for fname in LINALG:
            fn = getattr(linalg, fname)
            work = functools.partial(_linalg_flops, fname)
            self._restore.append((linalg, fname, fn))
            setattr(linalg, fname, self.wrap(fn, f"linalg.{fname}", "linalg",
                                             work))

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, obj = self._restore.pop()
            setattr(mod, attr, obj)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, ())]
        out.append((s.end - s.start) - covered(kids))
    return out


def _inside(spans: list[Span], name: str) -> list[bool]:
    """Whether each span has an ancestor called ``name``."""
    inside = []
    for s in spans:
        p = s.parent
        inside.append(p >= 0 and (spans[p].name == name or inside[p]))
    return inside


def layer_metrics(spans: list[Span], batteries: dict) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, over all recorded spans.

    ``batteries`` maps each battery name to the name of its check function.
    """
    selfs = self_times(spans)
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, float] = {}
    incl: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS + ("untraced",)}
    errors = {layer: 0 for layer in LAYERS}
    for s, st in zip(spans, selfs):
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + st
        calls[s.name] = calls.get(s.name, 0) + 1
        work[s.name] = work.get(s.name, 0.0) + s.work
        incl[s.name] = incl.get(s.name, 0.0) + (s.end - s.start)
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + st
        if s.error and s.layer in errors:
            errors[s.layer] += 1

    def sum_self(names):
        return sum(self_by_name.get(n, 0.0) for n in names)

    def per_solve(count):
        solves = calls.get(SOLVE, 0)
        return count / solves if solves else 0.0

    in_solve = _inside(spans, SOLVE)
    eig_in_solve = sum(1 for s, ins in zip(spans, in_solve)
                       if ins and s.name == "kernels.eigenvalues")
    dec_in_solve = sum(1 for s, ins in zip(spans, in_solve)
                       if ins and s.layer == "linalg")

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["untraced.self_s"] = (layer_self["untraced"], "s")
    for layer in LAYERS:
        m[f"{layer}.errors"] = (errors[layer], "count")
    scan = "design.targeted_grid_scan"
    m[f"{scan}.self_s"] = (self_by_name.get(scan, 0.0), "s")
    m[f"{scan}.calls"] = (calls.get(scan, 0), "count")
    m["design.scan_points"] = (int(work.get(scan, 0)), "count")
    m["design.global_optimality_audit.self_s"] = (
        self_by_name.get("design.global_optimality_audit", 0.0), "s")
    info = [f"game.{n}" for n in INFO_CONSTRUCTORS]
    m["game.info.self_s"] = (sum_self(info), "s")
    m["game.info.calls"] = (sum(calls.get(n, 0) for n in info), "count")
    m[f"{SOLVE}.self_s"] = (self_by_name.get(SOLVE, 0.0), "s")
    m[f"{SOLVE}.calls"] = (calls.get(SOLVE, 0), "count")
    m["game.coefficients"] = (int(work.get(SOLVE, 0)), "count")
    for fn in ("solve_mean", "verify_moment_restrictions"):
        m[f"game.{fn}.self_s"] = (self_by_name.get(f"game.{fn}", 0.0), "s")
    m["kernels.eigenvalues.calls"] = (calls.get("kernels.eigenvalues", 0),
                                      "count")
    m["kernels.eigen_calls_per_solve"] = (per_solve(eig_in_solve), "calls/solve")
    m["moments.check_positivity.calls"] = (
        calls.get("moments.check_positivity", 0), "count")
    for fn, count in (("sample_gaussian", "sampled_values"),
                      ("best_response_audit", "audited_node_draws")):
        name = f"montecarlo.{fn}"
        m[f"{name}.self_s"] = (self_by_name.get(name, 0.0), "s")
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"montecarlo.{count}"] = (int(work.get(name, 0)), "count")
    m["montecarlo.aggregate.self_s"] = (
        sum_self(f"montecarlo.{n}" for n in AGGREGATE), "s")
    for battery, fname in batteries.items():
        m[f"checks.{battery}.s"] = (incl.get(f"checks.{fname}", 0.0), "s")
    for fn in LINALG:
        m[f"linalg.{fn}.calls"] = (calls.get(f"linalg.{fn}", 0), "count")
        m[f"linalg.{fn}.self_s"] = (self_by_name.get(f"linalg.{fn}", 0.0), "s")
    m["linalg.decompositions_per_solve"] = (per_solve(dec_in_solve),
                                            "calls/solve")
    m["linalg.flops_computed"] = (sum(work.get(f"linalg.{fn}", 0.0)
                                      for fn in LINALG), "flop")
    return m


def write_spans(path: str, spans: list[Span]) -> None:
    """One JSON object per line, in the order the spans started."""
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "layer": s.layer,
                                 "parent": s.parent, "op": s.op,
                                 "start": s.start, "end": s.end,
                                 "work": s.work, "error": s.error}) + "\n")
