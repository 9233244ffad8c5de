import json

import numpy as np
import pytest

from kernelgames.grid import (GridFunction, MeasureGrid, inner_product,
                              integrate, norm, uniform_grid)


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
        assert integrate(g.constant(1.0)) == pytest.approx(1.0, abs=1e-14)


def test_integrate_identity_function():
    g = uniform_grid(4)
    assert integrate(g.from_callable(lambda t: t)) == pytest.approx(0.5, abs=1e-14)


def test_integrate_square_against_analytic():
    g = uniform_grid(1000)
    assert integrate(g.from_callable(lambda t: t ** 2)) == pytest.approx(
        1.0 / 3.0, abs=1e-6)


def test_inner_product_examples():
    g = uniform_grid(1000)
    one = g.constant(1.0)
    ident = g.from_callable(lambda t: t)
    assert inner_product(one, one) == pytest.approx(1.0, abs=1e-14)
    assert inner_product(ident, ident) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_inner_product_nonnegative_on_random_functions():
    rng = np.random.default_rng(0)
    g = uniform_grid(50)
    for _ in range(20):
        f = g.function(rng.normal(size=50))
        assert inner_product(f, f) >= 0.0


def test_inner_product_rejects_grid_mismatch():
    f = uniform_grid(4).constant(1.0)
    h = uniform_grid(5).constant(1.0)
    with pytest.raises(ValueError):
        inner_product(f, h)


def test_integrate_linearity():
    rng = np.random.default_rng(1)
    g = uniform_grid(64)
    f = g.function(rng.normal(size=64))
    h = g.function(rng.normal(size=64))
    lhs = integrate(g.function(2.5 * f.values - 1.25 * h.values))
    rhs = 2.5 * integrate(f) - 1.25 * integrate(h)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_cauchy_schwarz_on_random_functions():
    rng = np.random.default_rng(2)
    g = uniform_grid(40)
    for _ in range(50):
        f = g.function(rng.normal(size=40))
        h = g.function(rng.normal(size=40))
        assert abs(inner_product(f, h)) <= norm(f) * norm(h) + 1e-12


def test_midpoint_quadrature_is_second_order():
    exact = np.sin(1.0)  # integral of cos on [0, 1]
    errors = []
    for n in (50, 100, 200, 400):
        g = uniform_grid(n)
        errors.append(abs(integrate(g.from_callable(np.cos)) - exact))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    assert all(3.5 <= r <= 4.5 for r in ratios)


def test_grid_function_validation():
    g = uniform_grid(3)
    with pytest.raises(ValueError):
        GridFunction(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        GridFunction(g, [1.0, np.inf, 2.0])


def test_indicator_and_constant_helpers():
    g = uniform_grid(5)
    ind = g.indicator([0, 2])
    assert np.array_equal(ind.values, [1, 0, 1, 0, 0])
    assert integrate(ind) == pytest.approx(0.4)


def test_json_round_trip(tmp_path):
    g = MeasureGrid([0.1, 0.4, 0.9], [0.2, 0.3, 0.5])
    path = tmp_path / "grid.json"
    g.to_json(path)
    g2 = MeasureGrid.from_json(path)
    assert g.same_nodes(g2)


def test_json_rejects_extra_keys(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"coords": [0.5], "weights": [1.0], "x": 1}))
    with pytest.raises(ValueError):
        MeasureGrid.from_json(path)


def test_weights_from_csv(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("coord,weight\n0.25,0.5\n0.75,0.5\n")
    g = MeasureGrid.weights_from_csv(path)
    assert g.n == 2
    assert np.allclose(g.coords, [0.25, 0.75])


@pytest.mark.parametrize("text, line", [
    ("coord,weight\n0.25,0.5\nbad,row\n0.75,0.5\n", 3),
    ("0.25,0.5\ncoord,weight\n0.75,0.5\n", 2),
    ("0.25,0.5\n0.75\n", 2),
    ("0.25,0.5\n0.75,0.5,0.0\n", 2),
])
def test_weights_from_csv_rejects_malformed_rows(tmp_path, text, line):
    # only the first row may be a header; any other bad row names its line
    path = tmp_path / "grid.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"line {line} "):
        MeasureGrid.weights_from_csv(path)


def test_immutability():
    g = uniform_grid(4)
    with pytest.raises(ValueError):
        g.weights[0] = 2.0
