"""Weighted node grids standing in for a normalized population measure.

A grid is a finite set of nodes t_1 < ... < t_n with positive quadrature
weights w_i summing to one.  Integrals against the population measure are
evaluated as weighted sums, so every continuum formula in the rest of the
library reduces to plain linear algebra on these arrays.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

#: absolute tolerance on |sum(weights) - 1| accepted by the validator
WEIGHT_SUM_TOL = 1e-12


def _floats(a) -> np.ndarray:
    """``a`` as a float array, uncopied when it already is one."""
    try:
        return np.asarray(a, dtype=float)
    except TypeError:
        raise ValueError("expected an array of numbers") from None


def _frozen(a) -> np.ndarray:
    """A read-only C-contiguous float copy of ``a``; ``a`` itself is untouched."""
    a = _floats(a).copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MeasureGrid:
    """Nodes and weights of a discretized probability measure.

    Parameters
    ----------
    coords : (n,) array
        Node locations, strictly increasing.
    weights : (n,) array
        Positive quadrature weights with sum 1 (within ``WEIGHT_SUM_TOL``).
    """

    coords: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        coords = _frozen(self.coords)
        weights = _frozen(self.weights)
        if coords.ndim != 1 or weights.ndim != 1:
            raise ValueError("coords and weights must be one-dimensional")
        if coords.shape != weights.shape:
            raise ValueError("coords and weights must have equal length")
        if coords.size == 0:
            raise ValueError("grid must contain at least one node")
        if np.any(np.diff(coords) <= 0):
            raise ValueError("coords must be strictly increasing")
        if not np.all(np.isfinite(coords)) or not np.all(np.isfinite(weights)):
            raise ValueError("coords and weights must be finite")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to one")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.coords.size

    # -- grid-function helpers -------------------------------------------
    def function(self, values) -> "GridFunction":
        """Wrap an array of per-node values as a function on this grid."""
        return GridFunction(self, values)

    def constant(self, value: float) -> "GridFunction":
        return GridFunction(self, np.full(self.n, float(value)))

    def from_callable(self, fn) -> "GridFunction":
        return GridFunction(self, np.asarray(fn(self.coords), dtype=float))

    def indicator(self, members) -> "GridFunction":
        """0/1 function of a node subset given by an index array or bool mask."""
        mask = np.zeros(self.n)
        mask[np.asarray(members)] = 1.0
        return GridFunction(self, mask)

    def node_indices(self, idx) -> np.ndarray:
        """Integer node indices, checked to lie in 0..n-1."""
        try:
            arr = np.asarray(idx, dtype=int)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("node indices must be integers") from None
        if arr.size and (arr.min() < 0 or arr.max() >= self.n):
            raise ValueError(f"node index out of range 0..{self.n - 1}")
        return arr

    def same_nodes(self, other: "MeasureGrid") -> bool:
        return (
            self.n == other.n
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.weights, other.weights)
        )

    # -- serialization ---------------------------------------------------
    def to_json(self, path) -> None:
        payload = {"coords": self.coords.tolist(), "weights": self.weights.tolist()}
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)

    @classmethod
    def from_json(cls, path) -> "MeasureGrid":
        with open(path) as fh:
            return cls._from_payload(json.load(fh))

    @classmethod
    def _from_payload(cls, payload) -> "MeasureGrid":
        if not isinstance(payload, dict) or set(payload) != {"coords", "weights"}:
            raise ValueError("grid JSON must contain exactly 'coords' and 'weights'")
        return cls(payload["coords"], payload["weights"])

    @classmethod
    def weights_from_csv(cls, path) -> "MeasureGrid":
        """Read a two-column CSV of (coord, weight) rows; only the first row
        may be a non-numeric header."""
        coords, weights = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row:
                    continue
                try:
                    c, w = map(float, row)
                except ValueError:
                    if reader.line_num == 1:
                        continue  # header line
                    raise ValueError(f"{path}: line {reader.line_num} is not "
                                     f"a (coord, weight) row: {row!r}") from None
                coords.append(c)
                weights.append(w)
        return cls(coords, weights)


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function known at the nodes of a :class:`MeasureGrid`."""

    grid: MeasureGrid
    values: np.ndarray

    def __post_init__(self):
        values = _frozen(self.values)
        if values.shape != (self.grid.n,):
            raise ValueError("values must have one entry per grid node")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", values)


def uniform_grid(n: int, a: float = 0.0, b: float = 1.0) -> MeasureGrid:
    """Midpoint discretization of the uniform measure on [a, b].

    Nodes sit at cell midpoints a + (i + 1/2)(b - a)/n with equal weights
    1/n, which makes smooth-integrand quadrature second-order accurate.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not b > a:
        raise ValueError("interval must satisfy b > a")
    coords = a + (np.arange(n) + 0.5) * (b - a) / n
    weights = np.full(n, 1.0 / n)
    # nudge weights so they sum to one exactly despite rounding
    weights[-1] += 1.0 - weights.sum()
    return MeasureGrid(coords, weights)


def integrate(f: GridFunction) -> float:
    """Integral of f against the grid's measure: sum_i w_i f(t_i)."""
    return float(f.grid.weights @ f.values)


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Weighted L2 inner product <f, g> = sum_i w_i f(t_i) g(t_i)."""
    if not f.grid.same_nodes(g.grid):
        raise ValueError("grids do not match")
    return float(np.sum(f.grid.weights * f.values * g.values))


def norm(f: GridFunction) -> float:
    """Weighted L2 norm of f."""
    return float(np.sqrt(max(inner_product(f, f), 0.0)))
