import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kernelgames.cli import _Q_EXPR_NAMES, _parse
from kernelgames.game import (BasicGame, GaussianInfo, common_state_game,
                              full_info, private_iid_info)
from kernelgames.grid import MeasureGrid, uniform_grid
from kernelgames.kernels import (Kernel, check_psd, check_r1, check_r2,
                                 constant_kernel, eigenvalues, graph_kernel,
                                 hadamard_eigen_bound,
                                 numerical_range_bounds, operator_matrix,
                                 operator_norm_bound, psd_tol, psd_within,
                                 separable_kernel, spectral_report,
                                 unidirectional_kernel)
from kernelgames.moments import EquilibriumMoment, check_positivity
from kernelgames.montecarlo import verify_process


def _random_kernel(rng, n, undirected):
    values = rng.normal(size=(n, n))
    if undirected:
        values = 0.5 * (values + values.T)
    return Kernel(uniform_grid(n), values)


def _exchangeable(g, diag, offdiag):
    """K(t, t) = diag and K(s, t) = offdiag for s != t."""
    values = np.full((g.n, g.n), float(offdiag))
    np.fill_diagonal(values, float(diag))
    return Kernel(g, values)


# -- constructors and validation -------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 6), symmetrize=st.booleans())
def test_undirected_is_read_from_exact_symmetry(data, n, symmetrize):
    v = data.draw(hnp.arrays(float, (n, n), elements=st.floats(-1e6, 1e6)))
    if symmetrize:
        v = v + v.T
    assert Kernel(uniform_grid(n), v).undirected == np.array_equal(v, v.T)


def test_undirected_flag_requires_exact_symmetry():
    # a 1e-12 asymmetry reads as directed, so it is no state covariance
    g = uniform_grid(2)
    K = Kernel(g, [[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    assert not K.undirected
    with pytest.raises(ValueError, match="state covariance must be symmetric"):
        BasicGame(g, constant_kernel(g, 0.5), g.constant(0.0), K)


def test_symmetric_values_need_no_declaration():
    g = uniform_grid(5)
    B = np.random.default_rng(2).normal(size=(5, 2))
    K = Kernel(g, B @ B.T + (B @ B.T).T)     # exactly symmetric
    assert check_psd(K)
    BasicGame(g, constant_kernel(g, 0.5), g.constant(0.0), K)
    assert not np.any(eigenvalues(K).imag)


def test_operator_matrix_constant():
    g = uniform_grid(5)
    A = operator_matrix(constant_kernel(g, 0.7))
    assert np.allclose(A, 0.7 / 5)


def test_operator_matrix_diagonal():
    g = uniform_grid(4)
    A = operator_matrix(Kernel(g, np.eye(4)))
    assert np.allclose(A, np.diag(np.full(4, 0.25)))


def test_operator_matrix_separable_eigenfunction():
    # K(s,t) = q(s) q(t) with q(t) = t has eigenfunction q with value int q^2
    g = uniform_grid(1000)
    K = separable_kernel(g, 1.0, lambda t: t)
    q = g.coords
    Aq = operator_matrix(K) @ q
    assert np.max(np.abs(Aq - q / 3.0)) <= 1e-6


# -- eigenvalues ------------------------------------------------------------

def test_constant_kernel_spectrum():
    g = uniform_grid(8)
    eigs = eigenvalues(constant_kernel(g, 0.6))
    assert eigs[0].real == pytest.approx(0.6, abs=1e-12)
    assert np.max(np.abs(eigs[1:])) <= 1e-12


def test_unidirectional_kernel_spectrum_vanishes():
    for n in (50, 200):
        K = unidirectional_kernel(uniform_grid(n), 0.8)
        assert np.max(np.abs(eigenvalues(K))) <= 10 * 0.8 / n


def test_separable_rank_one_negative_eigenvalue():
    g = uniform_grid(30)
    K = separable_kernel(g, -2.0, np.ones(30))
    eigs = eigenvalues(K)
    assert np.min(eigs.real) == pytest.approx(-2.0, abs=1e-12)
    assert np.sum(np.abs(eigs) > 1e-10) == 1


def test_spectrum_equivalence_of_operator_conventions():
    from kernelgames.kernels import _weighted_symmetrized

    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        K = _random_kernel(rng, n, undirected=bool(rng.integers(2)))
        a = np.sort_complex(np.linalg.eigvals(operator_matrix(K)))
        b = np.sort_complex(np.linalg.eigvals(_weighted_symmetrized(K)))
        scale = 1.0 + np.max(np.abs(a))
        assert np.max(np.abs(a - b)) <= 1e-9 * scale


# -- numerical range ---------------------------------------------------------

def test_numerical_range_constant_kernel():
    g = uniform_grid(6)
    lo, hi = numerical_range_bounds(constant_kernel(g, 0.8))
    assert hi == pytest.approx(0.8, abs=1e-12)
    assert lo == pytest.approx(0.0, abs=1e-12)


def test_numerical_range_negative_separable():
    g = uniform_grid(25)
    lo, hi = numerical_range_bounds(separable_kernel(g, -1.5, lambda t: 1 + t))
    assert hi <= 1e-12
    assert lo < 0


def test_unidirectional_numerical_range_converges_inside_zero_r():
    r = 0.8
    sups = []
    for n in (100, 200, 400):
        _, hi = numerical_range_bounds(unidirectional_kernel(uniform_grid(n), r))
        assert 0.0 < hi < r
        sups.append(hi)
    # Cauchy-like convergence of the sup as the grid refines
    assert abs(sups[2] - sups[1]) < abs(sups[1] - sups[0])


def test_unidirectional_constant_function_rayleigh_quotient():
    # the flat-profile Rayleigh quotient of r 1{s<t}: double integral r/2,
    # up to the O(1/n) strict-inequality correction of the discrete grid
    r, n = 0.9, 400
    g = uniform_grid(n)
    K = unidirectional_kernel(g, r)
    q = g.weights @ K.values @ g.weights     # the flat profile has norm 1
    assert q == pytest.approx(r / 2 * (1 - 1 / n), abs=1e-12)


# -- (R1) / (R2) -------------------------------------------------------------

def test_check_r1_examples():
    g = uniform_grid(10)
    assert check_r1(constant_kernel(g, 0.5))
    assert not check_r1(constant_kernel(g, 1.0))


def test_sup_bounded_kernel_satisfies_r1():
    rng = np.random.default_rng(3)
    values = rng.uniform(-0.99, 0.99, size=(20, 20))
    assert np.max(np.abs(values)) < 1.0
    assert check_r1(Kernel(uniform_grid(20), values))


def test_check_r2_examples():
    g = uniform_grid(40)
    assert not check_r2(constant_kernel(g, 2.0))
    # one-directional interactions: no real eigenvalue at all, any strength
    K = unidirectional_kernel(uniform_grid(200), 5.0)
    assert check_r2(K)
    assert not check_r1(K)


def test_r1_equals_r2_for_undirected():
    rng = np.random.default_rng(4)
    for _ in range(20):
        K = _random_kernel(rng, 15, undirected=True)
        hi = numerical_range_bounds(K)[1]
        assert check_r1(K) == check_r2(K) == (hi < 1.0)


# -- PSD verdict -------------------------------------------------------------

def test_check_psd_examples():
    g = uniform_grid(6)
    assert check_psd(constant_kernel(g, 1.0))
    for lam in (1.0, 1.5, 4.0):
        assert check_psd(_exchangeable(g, 1.0, 1.0 / lam))
    assert not check_psd(_exchangeable(g, 1.0, 2.0))


def test_check_psd_rejects_directed():
    K = unidirectional_kernel(uniform_grid(4), 0.5)
    with pytest.raises(ValueError):
        check_psd(K)


def _orthogonal(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n)))[0]


def _with_spectrum(q, eigs):
    m = (q * eigs) @ q.T
    return 0.5 * (m + m.T)


def _one_eigenvalue_at(q, eigs, depth):
    # eigs[0] moved to -depth times the PSD tolerance of the matrix
    eigs = eigs.copy()
    eigs[0] = 0.0
    eigs[0] = -depth * psd_tol(_with_spectrum(q, eigs))
    return _with_spectrum(q, eigs)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), zeros=st.integers(0, 40),
       seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-6.0, 6.0),
       depth=st.floats(-1.0, 3.0))
def test_psd_within_matches_min_eigenvalue(n, zeros, seed, log_scale, depth):
    # spectrum in [0, 10**log_scale] with `zeros` exact zeros and one
    # eigenvalue near -depth * tol, so tol = 1e-8 (1 + max diag) spans six
    # decades; the gate must agree with eigvalsh away from -tol
    rng = np.random.default_rng(seed)
    eigs = rng.uniform(0.0, 10.0 ** log_scale, n)
    eigs[:zeros] = 0.0
    m = _one_eigenvalue_at(_orthogonal(rng, n), eigs, depth)
    min_eig = np.linalg.eigvalsh(m)[0]
    tol = psd_tol(m)
    assert tol == 1e-8 * (1.0 + max(np.max(np.diag(m)), 0.0))
    assume(abs(min_eig + tol) > 0.01 * tol)
    assert psd_within(m) == (min_eig >= -tol)


@pytest.mark.parametrize("depth", [0.5, 2.0])
def test_psd_within_restores_input_bit_for_bit(depth):
    # a matrix without repeated rows and one with runs of them, each passed
    # writable and read-only
    rng = np.random.default_rng(5)
    m = _one_eigenvalue_at(_orthogonal(rng, 50), rng.uniform(0.0, 1.0, 50),
                           depth)
    for sym in (m, _expand_runs(m, rng.integers(1, 4, 50))):
        for writeable in (True, False):
            sym = sym.copy()
            before = sym.copy()
            sym.flags.writeable = writeable
            assert psd_within(sym) == (depth < 1.0)
            assert np.array_equal(sym.view(np.uint64), before.view(np.uint64))


def _expand_runs(merged, runs):
    """The matrix with runs[r] equal rows per coordinate r of ``merged``,
    scaled so that merging each run gives ``merged`` back."""
    root = np.sqrt(runs)
    return np.repeat(np.repeat(merged / np.outer(root, root), runs, axis=0),
                     runs, axis=1)


def _cholesky_passes(sym):
    try:
        np.linalg.cholesky(sym + psd_tol(sym) * np.eye(len(sym)))
        return True
    except np.linalg.LinAlgError:
        return False


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       kind=st.sampled_from(["runs", "common_state", "public_signal",
                             "no_signal"]),
       n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       log_scale=st.floats(-3.0, 3.0),
       depth=st.sampled_from([0.5, 0.99, 1.01, 2.0]))
def test_psd_within_merges_repeated_rows_without_changing_the_verdict(
        data, kind, n, seed, log_scale, depth):
    # runs of equal rows: a common state shared by n nodes followed by own
    # signals, distinct states followed by one public (or all-zero) signal
    # block at the last index, or any run lengths with some runs all zero;
    # one eigenvalue at -depth * tol along a direction that keeps the runs
    if kind == "runs":
        runs = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=10))
        dead = data.draw(st.lists(st.booleans(), min_size=len(runs),
                                  max_size=len(runs)))
    elif kind == "common_state":
        runs = [n] + [1] * data.draw(st.integers(0, 12))
        dead = [False] * len(runs)
    else:
        runs = [1] * n + [n]
        dead = [False] * n + [kind == "no_signal"]
    live = np.flatnonzero(~np.array(dead))
    if live.size == 0:
        live = np.arange(1)
    rng = np.random.default_rng(seed)
    q = _orthogonal(rng, live.size)
    eigs = rng.uniform(0.0, 10.0 ** log_scale, live.size)
    eigs[1:1 + data.draw(st.integers(0, live.size - 1))] = 0.0

    def build(eigs):
        merged = np.zeros((len(runs), len(runs)))
        merged[np.ix_(live, live)] = _with_spectrum(q, eigs)
        return _expand_runs(merged, np.array(runs))

    eigs[0] = 0.0
    eigs[0] = -depth * psd_tol(build(eigs))
    sym = build(eigs)
    assert np.array_equal(sym, sym.T)
    assert _cholesky_passes(sym) == (depth < 1.0)
    assert psd_within(sym) == _cholesky_passes(sym)


def test_psd_within_factors_one_coordinate_per_run(monkeypatch):
    sizes = []
    cholesky = np.linalg.cholesky

    def recorded(a):
        sizes.append(len(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    g = uniform_grid(50)
    game = common_state_game(g, constant_kernel(g, 0.5))
    assert sizes == [1]         # the state covariance: one run of 50 rows
    sizes.clear()
    full_info(game)             # x(t) = theta: all 100 rows are equal
    assert sizes == [1]
    sizes.clear()
    private_iid_info(game, 0.5, exact_lln=False)   # theta run + 50 signals
    assert sizes == [51]
    sizes.clear()
    m = np.eye(50) + 0.5        # no repeated rows: factored at full size
    assert psd_within(m) and sizes == [50]


def test_psd_within_merges_only_rows_equal_in_full():
    # rows 0 and 1 agree on the diagonal and sub-diagonal but not in column
    # 2: (e0 - e1)' M (e0 - e1) = 0 while M (e0 - e1) != 0, so M is
    # indefinite; merging them would give the PD [[2, sqrt 2], [sqrt 2, 3]]
    m = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 2.0], [1.0, 2.0, 3.0]])
    assert np.linalg.eigvalsh(m)[0] < -0.1
    assert not psd_within(m)
    # the same pair in a second stretch of candidates, after a true run
    big = np.zeros((6, 6))
    big[:2, :2] = 1.0
    big[2, 2] = 5.0
    big[3:, 3:] = m
    assert not psd_within(big)


@pytest.mark.parametrize("bad, psd", [(-1e-7, False), (-1e-9, True)])
def test_one_psd_verdict_at_every_entry_point(bad, psd):
    # eigenvalues in [1, 2] plus one at `bad`: the tolerance 1e-8 (1 + max
    # diag) is about 2.5e-8, below 1e-7 and above 1e-9, at every entry point
    n = 400
    rng = np.random.default_rng(400)
    eigs = rng.uniform(1.0, 2.0, n)
    eigs[0] = bad
    cov = _with_spectrum(_orthogonal(rng, n), eigs)
    g = uniform_grid(n)
    moment = EquilibriumMoment(g, Kernel(g, cov), g.constant(0.0), 1.0)
    assert check_psd(Kernel(g, cov)) is psd
    assert check_positivity(moment) is psd
    entry_points = [
        lambda: BasicGame(g, constant_kernel(g, 0.5), g.constant(0.0),
                          Kernel(g, cov)),
        lambda: GaussianInfo(Kernel(g, cov), np.ones(n, int), np.zeros(n),
                             np.eye(n), np.zeros((n, n))),
        lambda: verify_process(g, np.zeros(n), cov, 10, 0, np.zeros(n), [0]),
    ]
    if psd:
        for build in entry_points:
            build()
        assert entry_points[-1]().clamp == pytest.approx(-bad, rel=1e-2)
    else:
        for build in entry_points:
            with pytest.raises(ValueError, match="positive semidefinite"):
                build()


def test_psd_closure_under_sum_and_entrywise_product():
    rng = np.random.default_rng(6)
    g = uniform_grid(10)
    for _ in range(20):
        A = rng.normal(size=(10, 3))
        B = rng.normal(size=(10, 3))
        Ka = Kernel(g, A @ A.T)
        Kb = Kernel(g, B @ B.T)
        assert check_psd(Kernel(g, Ka.values + Kb.values))
        assert check_psd(Kernel(g, Ka.values * Kb.values))


# -- Hadamard-product eigenvalue bound ---------------------------------------

def test_hadamard_bound_with_all_ones_kernel():
    g = uniform_grid(9)
    K = constant_kernel(g, 1.0)
    R = constant_kernel(g, 0.5)
    max_eig, bound, holds = hadamard_eigen_bound(K, R)
    assert max_eig == pytest.approx(0.5, abs=1e-12)
    assert bound == 1.0
    assert holds


def test_hadamard_bound_with_diagonal_correlation():
    g = uniform_grid(7)
    K = Kernel(g, np.eye(7))
    rng = np.random.default_rng(8)
    R = Kernel(g, rng.uniform(-0.9, 0.9, size=(7, 7)))
    assert check_r1(R)
    max_eig, bound, holds = hadamard_eigen_bound(K, R)
    expected = np.max(g.weights * np.diag(R.values))
    assert max_eig == pytest.approx(max(expected, 0.0), abs=1e-12)
    assert holds


def test_hadamard_bound_two_node_oracle():
    g = MeasureGrid([0.25, 0.75], [0.5, 0.5])
    K = Kernel(g, [[1.0, 1.0], [1.0, 1.0]])
    R = Kernel(g, [[0.5, 0.9], [0.9, 0.5]])
    assert check_r1(R)           # sym operator eigenvalues {0.7, -0.2}
    max_eig, bound, holds = hadamard_eigen_bound(K, R)
    # K o R = R here; direct 2x2 eigensolve of R W
    oracle = np.max(np.linalg.eigvals(operator_matrix(R)).real)
    assert max_eig == pytest.approx(oracle, abs=1e-12)
    assert holds and max_eig < 1.0


def test_hadamard_bound_rejects_bad_preconditions():
    g = uniform_grid(4)
    with pytest.raises(ValueError):
        hadamard_eigen_bound(_exchangeable(g, 1.0, 2.0),
                             constant_kernel(g, 0.5))
    with pytest.raises(ValueError):
        hadamard_eigen_bound(constant_kernel(g, 1.0),
                             constant_kernel(g, 1.5))


# battery 8 as a property: for K PSD and R with numerical range below 1 the
# real eigenvalues of K o R stay below max_t K(t, t), on any weights
@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 30), rank=st.integers(1, 32), log_k=st.floats(-3, 3),
       sup=st.floats(0.01, 0.99), directed=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hadamard_bound_holds_for_psd_k_and_r1_r(n, rank, log_k, sup,
                                                  directed, seed):
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.5, 1.5, n)
    g = MeasureGrid(np.arange(n, dtype=float), u / u.sum())
    B = rng.normal(size=(n, rank)) * np.exp(log_k)
    K = Kernel(g, 0.5 * (B @ B.T + (B @ B.T).T))
    Rv = rng.normal(size=(n, n))
    if not directed:
        Rv = Rv + Rv.T
    # scale the numerical range into [-sup, sup]
    R = Kernel(g, Rv * (sup / max(np.abs(numerical_range_bounds(
        Kernel(g, Rv)))) / (1 + 1e-9)))
    assert check_r1(R)
    max_eig, bound, holds = hadamard_eigen_bound(K, R)
    assert bound == np.max(np.diag(K.values))
    assert holds and max_eig < bound


# -- report and serialization ------------------------------------------------

def test_spectral_report_containment_chain():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(3, 25))
        K = _random_kernel(rng, n, undirected=bool(rng.integers(2)))
        rep = spectral_report(K)
        assert rep.r1_holds == check_r1(K)
        eigs = np.asarray(rep.eigenvalues)
        scale = 1e-9 * (1.0 + np.max(np.abs(eigs)))
        assert eigs.real.max() <= rep.numerical_range_sup + scale
        assert eigs.real.min() >= rep.numerical_range_inf - scale
        assert rep.numerical_range_sup <= rep.operator_norm_bound + scale
        assert rep.numerical_range_inf >= -rep.operator_norm_bound - scale
        if K.undirected:
            assert rep.numerical_range_sup == pytest.approx(
                eigs.real.max(), abs=scale)


def test_operator_norm_bound_constant():
    g = uniform_grid(11)
    assert operator_norm_bound(constant_kernel(g, -0.3)) == pytest.approx(0.3)


def test_kernel_csv_json_round_trip(tmp_path):
    g = uniform_grid(3)
    K = graph_kernel(g, [(0, 1), (1, 2)], 0.4)
    jpath = tmp_path / "k.json"
    K.to_json(jpath)
    assert set(json.loads(jpath.read_text())) == {"grid", "values"}
    K2 = Kernel.from_json(jpath)
    assert np.array_equal(K.values, K2.values)
    assert K2.undirected


def test_kernel_json_rejects_legacy_undirected_key(tmp_path):
    g = uniform_grid(2)
    payload = {"grid": {"coords": g.coords.tolist(), "weights": g.weights.tolist()},
               "values": [[0.0, 1.0], [1.0, 0.0]], "undirected": True}
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="exactly 'grid' and 'values'"):
        Kernel.from_json(path)


def _separable(g, r, q_expr):
    # a separable kernel's q_expr profile is config input, parsed by the CLI
    return _parse("kernel", {"kind": "separable", "r": r, "q_expr": q_expr}, g)[0]


def test_q_expr_allowed_forms_match_python_eval():
    g = uniform_grid(9, 0.1, 2.0)
    expr = ("-(+2.5 * t ** 2 - 1 / (3 + t)) + sin(t) * cos(pi * t) - exp(-t)"
            " + log(1 + t) + sqrt(t) + abs(t - 1) + tanh(2 * t) + 2 ** -1 + 7")
    ref = eval(expr, {"__builtins__": {}}, dict(_Q_EXPR_NAMES, t=g.coords))
    K = _separable(g, 1.0, expr)
    assert np.array_equal(K.values, np.outer(ref, ref))
    K = _separable(g, 0.5, "-pi")
    assert np.array_equal(K.values, np.full((9, 9), 0.5 * np.pi ** 2))


@pytest.mark.parametrize("expr", [
    "().__class__.__base__.__subclasses__().__len__() + 0*t",   # attribute
    "t.size + t",
    "t[0] + t",                                                 # subscript
    "(lambda: t)()",                                            # lambda
    "os + t",                                                   # unknown name
    "sin",                                                      # bare function
    "sin(t, t)",
    "sin(x=t)",
    "t if t else t",
    "t < 1",
    "'a'",
    "True * t",
    "t +",                                                      # syntax error
    "1 / 0 + t",
    "10.0 ** 1000 + t",
    7,
])
def test_q_expr_rejects_everything_else(expr):
    g = uniform_grid(5)
    with pytest.raises(ValueError):
        _separable(g, 1.0, expr)


def test_graph_kernel_rejects_bad_edges():
    g = uniform_grid(4)
    for edges in ([(0, 4)], [(-1, 2)], [(0, 1, 2)], [[0, None]], "ab",
                  [[0.9, 1.5]], [["0", 1]], [[True, 2]], [[0, 1], [2, False]]):
        with pytest.raises(ValueError):
            graph_kernel(g, edges, 0.3)
    assert graph_kernel(g, [[0.0, 2.0]], 0.3).values[2, 0] == 0.3
    assert not graph_kernel(g, [], 0.3).values.any()
