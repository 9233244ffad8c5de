import json

import numpy as np
import pytest

from kernelgames.grid import GridFunction, MeasureGrid, uniform_grid
from kernelgames.kernels import Kernel


def test_uniform_grid_single_node():
    g = uniform_grid(1)
    assert g.n == 1
    assert g.coords[0] == 0.5
    assert g.weights[0] == 1.0


def test_uniform_grid_midpoints():
    g = uniform_grid(4)
    assert np.allclose(g.coords, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(g.weights, 0.25)


def test_uniform_grid_weights_sum_exactly():
    for n in (10, 3, 7, 1000):
        assert uniform_grid(n).weights.sum() == 1.0


def test_uniform_grid_rejects_zero_nodes():
    with pytest.raises(ValueError):
        uniform_grid(0)


def test_grid_validation():
    with pytest.raises(ValueError):
        MeasureGrid([0.5, 0.2], [0.5, 0.5])        # not increasing
    with pytest.raises(ValueError):
        MeasureGrid([0.2, 0.5], [1.5, -0.5])       # negative weight
    with pytest.raises(ValueError):
        MeasureGrid([0.2, 0.5], [0.6, 0.6])        # sum != 1
    with pytest.raises(ValueError):
        MeasureGrid([0.2, 0.5], [0.5])             # length mismatch


def test_integrate_constant_is_one():
    for n in (1, 4, 33):
        g = uniform_grid(n)
        assert g.weights @ np.ones(n) == pytest.approx(1.0, abs=1e-14)


def test_integrate_identity_function():
    g = uniform_grid(4)
    assert g.weights @ g.coords == pytest.approx(0.5, abs=1e-14)


def test_integrate_square_against_analytic():
    g = uniform_grid(1000)
    assert g.weights @ g.coords ** 2 == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_midpoint_quadrature_is_second_order():
    exact = np.sin(1.0)  # integral of cos on [0, 1]
    errors = []
    for n in (50, 100, 200, 400):
        g = uniform_grid(n)
        errors.append(abs(g.weights @ np.cos(g.coords) - exact))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    assert all(3.5 <= r <= 4.5 for r in ratios)


def test_grid_function_validation():
    g = uniform_grid(3)
    with pytest.raises(ValueError):
        GridFunction(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        GridFunction(g, [1.0, np.inf, 2.0])


def test_json_round_trip(tmp_path):
    # a grid is written and read as JSON only inside a kernel file
    g = MeasureGrid([0.1, 0.4, 0.9], [0.2, 0.3, 0.5])
    path = tmp_path / "k.json"
    Kernel(g, np.eye(3)).to_json(path)
    assert g.same_nodes(Kernel.from_json(path).grid)


def test_json_rejects_extra_keys(tmp_path):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"grid": {"coords": [0.5], "weights": [1.0],
                                         "x": 1},
                                "values": [[0.0]]}))
    with pytest.raises(ValueError, match="exactly 'coords' and 'weights'"):
        Kernel.from_json(path)


def test_immutability():
    g = uniform_grid(4)
    with pytest.raises(ValueError):
        g.weights[0] = 2.0
