"""Weighted node grids standing in for a normalized population measure.

A grid is a finite set of nodes t_1 < ... < t_n with positive quadrature
weights w_i summing to one.  Integrals against the population measure are
evaluated as weighted sums, so every continuum formula in the rest of the
library reduces to plain linear algebra on these arrays.
"""

from __future__ import annotations

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

    def node_indices(self, idx) -> np.ndarray:
        """Integer node indices, checked to lie in 0..n-1.

        An integer array passes on its dtype; any other input is checked
        entry by entry, so a fractional number, a string or a boolean is an
        error instead of a cast index (0.7 -> 0, "2" -> 2, True -> 1).
        """
        if not (isinstance(idx, np.ndarray) and idx.dtype.kind in "iu"):
            for x in np.asarray(idx, dtype=object).flat:
                if (isinstance(x, (bool, np.bool_))
                        or not isinstance(x, (int, np.integer))
                        and not (isinstance(x, (float, np.floating))
                                 and float(x).is_integer())):
                    raise ValueError(f"node index {x!r} is not an integer")
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

    @classmethod
    def _from_payload(cls, payload) -> "MeasureGrid":
        if not isinstance(payload, dict) or set(payload) != {"coords", "weights"}:
            raise ValueError("grid JSON must contain exactly 'coords' and 'weights'")
        return cls(payload["coords"], payload["weights"])


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
