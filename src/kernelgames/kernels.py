"""Bivariate kernels on a grid and spectral tests of the weighted operator.

Two distinct matrix objects appear throughout:

* the *operator matrix* A = K W (W = diag of weights), which discretizes
  phi |-> integral K(., t) phi(t) dnu(t) on the weighted L2 space; all
  eigenvalue / numerical-range quantities refer to it (or to its symmetric
  similarity W^{1/2} K W^{1/2}, which has the same spectrum);
* the *raw value matrix* K itself, which is the Gram matrix quantified over
  arbitrary node selections; positive-semidefiniteness checks use it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .grid import GridFunction, MeasureGrid, _frozen, inner_product

#: |Im(lambda)| <= REAL_EIG_CUTOFF * (1 + |lambda|) counts as a real eigenvalue
REAL_EIG_CUTOFF = 1e-9


@dataclass(frozen=True)
class Kernel:
    """Bivariate kernel sampled at grid nodes: values[i, j] = K(t_i, t_j);
    ``undirected`` iff the values are exactly symmetric."""

    grid: MeasureGrid
    values: np.ndarray
    undirected: bool = field(init=False)

    def __post_init__(self):
        values = _frozen(self.values)
        n = self.grid.n
        if values.shape != (n, n):
            raise ValueError("kernel values must be an n x n matrix")
        if not np.all(np.isfinite(values)):
            raise ValueError("kernel values must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "undirected",
                           bool(np.array_equal(values, values.T)))

    @property
    def n(self) -> int:
        return self.grid.n

    def diag(self) -> np.ndarray:
        return np.diag(self.values)

    def scale(self, c: float) -> "Kernel":
        return Kernel(self.grid, self.values * float(c))

    # -- serialization ---------------------------------------------------
    @classmethod
    def from_csv(cls, path, grid: MeasureGrid) -> "Kernel":
        with open(path, newline="") as fh:
            rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
        return cls(grid, rows)

    def to_json(self, path) -> None:
        payload = {
            "grid": {"coords": self.grid.coords.tolist(),
                     "weights": self.grid.weights.tolist()},
            "values": self.values.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def from_json(cls, path) -> "Kernel":
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or set(payload) != {"grid", "values"}:
            raise ValueError("kernel JSON must contain exactly 'grid' and 'values'")
        return cls(MeasureGrid._from_payload(payload["grid"]), payload["values"])


@dataclass(frozen=True)
class SpectralReport:
    """Summary of the weighted-operator spectrum of a kernel."""

    eigenvalues: tuple
    numerical_range_inf: float
    numerical_range_sup: float
    operator_norm_bound: float
    diag_sup: float
    r1_holds: bool
    r2_holds: bool

    def as_dict(self) -> dict:
        return {
            "eigenvalues_re": [z.real for z in self.eigenvalues],
            "eigenvalues_im": [z.imag for z in self.eigenvalues],
            "numerical_range_inf": self.numerical_range_inf,
            "numerical_range_sup": self.numerical_range_sup,
            "operator_norm_bound": self.operator_norm_bound,
            "diag_sup": self.diag_sup,
            "r1_holds": self.r1_holds,
            "r2_holds": self.r2_holds,
        }


# ---------------------------------------------------------------------------
# constructors

def constant_kernel(grid: MeasureGrid, r: float) -> Kernel:
    return Kernel(grid, np.full((grid.n, grid.n), float(r)))


def unidirectional_kernel(grid: MeasureGrid, r: float) -> Kernel:
    """R(s, t) = r * 1{s < t}: each agent responds only to later-indexed ones."""
    s = grid.coords[:, None]
    t = grid.coords[None, :]
    return Kernel(grid, float(r) * (s < t).astype(float))


def separable_kernel(grid: MeasureGrid, r: float, q) -> Kernel:
    """R(s, t) = r * q(s) * q(t) for a per-node profile q (callable or array)."""
    qv = np.asarray(q(grid.coords) if callable(q) else q, dtype=float)
    if qv.shape != (grid.n,):
        raise ValueError("q must produce one value per node")
    return Kernel(grid, float(r) * np.outer(qv, qv))


def diagonal_kernel(grid: MeasureGrid, diag=1.0) -> Kernel:
    """K(s, t) = diag(t) * 1{s = t}."""
    d = np.full(grid.n, float(diag)) if np.isscalar(diag) else np.asarray(diag, float)
    return Kernel(grid, np.diag(d))


def graph_kernel(grid: MeasureGrid, edges, rbar: float,
                 undirected: bool = True) -> Kernel:
    """Network-game kernel R(s, t) = rbar * 1{(s, t) is an edge}."""
    idx = grid.node_indices(edges)
    if idx.size and (idx.ndim != 2 or idx.shape[1] != 2):
        raise ValueError("edges must be a list of (i, j) node pairs")
    idx = idx.reshape(-1, 2)
    values = np.zeros((grid.n, grid.n))
    values[idx[:, 0], idx[:, 1]] = float(rbar)
    if undirected:
        values[idx[:, 1], idx[:, 0]] = float(rbar)
    return Kernel(grid, values)


def exchangeable_kernel(grid: MeasureGrid, diag: float, offdiag: float) -> Kernel:
    """K(t, t) = diag, K(s, t) = offdiag for s != t."""
    values = np.full((grid.n, grid.n), float(offdiag))
    np.fill_diagonal(values, float(diag))
    return Kernel(grid, values)


# ---------------------------------------------------------------------------
# spectral machinery

def operator_matrix(K: Kernel) -> np.ndarray:
    """A with A[i, j] = K(t_i, t_j) * w_j, discretizing the integral operator."""
    return K.values * K.grid.weights[None, :]


def _weighted_symmetrized(K: Kernel) -> np.ndarray:
    """S = W^{1/2} K W^{1/2}; similar to K W, symmetric iff K is undirected."""
    sw = np.sqrt(K.grid.weights)
    return sw[:, None] * K.values * sw[None, :]


def eigenvalues(K: Kernel) -> np.ndarray:
    """Operator eigenvalues, sorted by descending real part.

    For undirected kernels the symmetric similarity W^{1/2} K W^{1/2} is used,
    so the result is exactly real; otherwise a general eigensolve of K W.
    """
    if K.undirected:
        eigs = np.linalg.eigvalsh(_weighted_symmetrized(K)).astype(complex)
    else:
        eigs = np.linalg.eigvals(operator_matrix(K))
    order = np.argsort(-eigs.real, kind="stable")
    return eigs[order]


def _real_mask(eigs: np.ndarray) -> np.ndarray:
    """Which eigenvalues count as real (see ``REAL_EIG_CUTOFF``)."""
    return np.abs(eigs.imag) <= REAL_EIG_CUTOFF * (1.0 + np.abs(eigs))


def real_eigenvalues(K: Kernel) -> np.ndarray:
    """Real parts of the eigenvalues that count as real (``_real_mask``)."""
    eigs = eigenvalues(K)
    return eigs.real[_real_mask(eigs)]


def numerical_range_bounds(K: Kernel) -> tuple:
    """(inf, sup) of the real Rayleigh quotients <phi, K phi> / ||phi||^2.

    Equals the extreme eigenvalues of the symmetric part of the weighted
    operator; for undirected kernels these coincide with the extreme
    eigenvalues themselves.
    """
    S = _weighted_symmetrized(K)
    sym_eigs = np.linalg.eigvalsh(0.5 * (S + S.T))
    return float(sym_eigs[0]), float(sym_eigs[-1])


def operator_norm_bound(K: Kernel) -> float:
    """The L2(nu x nu) norm of K, an upper bound for the operator norm."""
    w = K.grid.weights
    return float(np.sqrt(np.sum(w[:, None] * w[None, :] * K.values ** 2)))


def rayleigh_quotient(K: Kernel, f) -> float:
    """<f, K f> over ||f||^2 in the weighted L2 space."""
    if not isinstance(f, GridFunction):
        f = K.grid.function(f)
    Kf = K.grid.function(operator_matrix(K) @ f.values)
    num = inner_product(f, Kf)
    den = inner_product(f, f)
    if den == 0.0:
        raise ValueError("zero function has no Rayleigh quotient")
    return num / den


def check_r1(K: Kernel) -> bool:
    """Numerical range bounded above by 1."""
    return numerical_range_bounds(K)[1] < 1.0


def check_r2(K: Kernel) -> bool:
    """All real eigenvalues of the operator below 1."""
    return bool(np.all(real_eigenvalues(K) < 1.0))


def check_psd(K: Kernel) -> bool:
    """PSD test on the raw value matrix (``psd_within``)."""
    if not K.undirected:
        raise ValueError("PSD check requires an undirected kernel")
    return psd_within(K.values.copy())


def cauchy_schwarz_audit(K: Kernel) -> float:
    """Max over node pairs of K(s,t) - sqrt(K(s,s) K(t,t)); <= tol when PSD."""
    if not K.undirected:
        raise ValueError("Cauchy-Schwarz audit requires an undirected kernel")
    d = np.clip(K.diag(), 0.0, None)
    bound = np.sqrt(np.outer(d, d))
    return float(np.max(K.values - bound))


def spectral_report(K: Kernel) -> SpectralReport:
    eigs = eigenvalues(K)
    nr_inf, nr_sup = numerical_range_bounds(K)
    return SpectralReport(
        eigenvalues=tuple(complex(z) for z in eigs),
        numerical_range_inf=nr_inf,
        numerical_range_sup=nr_sup,
        operator_norm_bound=operator_norm_bound(K),
        diag_sup=float(np.max(np.abs(K.diag()))),
        r1_holds=nr_sup < 1.0,      # check_r1's rule
        r2_holds=bool(np.all(eigs.real[_real_mask(eigs)] < 1.0)),
    )


def hadamard_eigen_bound(K: Kernel, R: Kernel) -> tuple:
    """Largest real operator eigenvalue of the entrywise product K o R.

    For K undirected PSD with bounded diagonal and R with the numerical range
    bounded below 1, every real eigenvalue of the product operator stays below
    max_t K(t, t).  Returns (max_real_eig, bound, holds).
    """
    if not check_psd(K):
        raise ValueError("K must be positive semidefinite")
    if not check_r1(R):
        raise ValueError("R must satisfy the numerical-range condition (R1)")
    re = real_eigenvalues(Kernel(K.grid, K.values * R.values))
    max_real = float(re.max()) if re.size else 0.0
    bound = float(np.max(K.diag()))
    return max_real, bound, max_real < bound


def psd_tol(sym: np.ndarray) -> float:
    """The one PSD tolerance, 1e-8 (1 + max(max diag, 0)); it does not grow
    with the size of ``sym``."""
    return 1e-8 * (1.0 + float(np.max(sym.diagonal(), initial=0.0)))


def psd_within(sym: np.ndarray) -> bool:
    """True iff the symmetric matrix ``sym`` has no eigenvalue below
    -``psd_tol(sym)``: the library's one PSD verdict.

    Decided by a Cholesky factorization of sym + tol * I, which exists exactly
    when the smallest eigenvalue exceeds -tol; its backward error moves an
    eigenvalue by about N^2 * eps * max diag at most, below the tolerance for
    any N up to several thousand.  The diagonal of ``sym`` (writable, lower
    triangle read) is shifted in place and restored before returning, so
    ``sym`` comes back bit for bit.
    """
    diag = sym.diagonal().copy()
    np.fill_diagonal(sym, diag + psd_tol(sym))
    try:
        np.linalg.cholesky(sym)
        return True
    except np.linalg.LinAlgError:
        return False
    finally:
        np.fill_diagonal(sym, diag)
