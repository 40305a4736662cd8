"""Least-squares optimizer and line-shape model library."""

import math

import numpy as np
import pytest

from jumpspec import fitting


def test_lorentzian_fit_recovers_parameters():
    rng = np.random.default_rng(0)
    x = np.linspace(-50e3, 50e3, 101)
    truth = np.array([5e3, 8e3, 10.0, 1.0])
    y, _ = fitting.multi_lorentzian(x, truth)
    y += rng.normal(0, 0.1, x.size)
    res = fitting.curve_fit(fitting.multi_lorentzian, x, y,
                            np.array([0.0, 10e3, 8.0, 0.5]))
    assert res.converged
    # the width enters only squared, so its sign is a gauge freedom
    fitted = np.array([res.x[0], abs(res.x[1]), res.x[2], res.x[3]])
    assert np.allclose(fitted, truth, rtol=0.05)
    assert np.all(res.sigma > 0)


def test_cost_history_is_monotone():
    rng = np.random.default_rng(1)
    x = np.linspace(-50e3, 50e3, 60)
    y, _ = fitting.multi_lorentzian(x, np.array([2e3, 12e3, 5.0, 1.0]))
    y += rng.normal(0, 0.2, x.size)
    res = fitting.curve_fit(fitting.multi_lorentzian, x, y,
                            np.array([-6e3, 25e3, 3.0, 0.0]))
    hist = res.cost_history
    assert np.all(np.diff(hist) <= 0)
    assert res.cost == hist[-1]


def test_nan_residual_does_not_converge():
    def bad(x):
        return np.array([math.nan]), np.array([[1.0]])

    res = fitting.levenberg_marquardt(bad, np.array([1.0]), max_iter=3)
    assert not res.converged
    assert res.n_iter == 3


@pytest.mark.parametrize("model,p", [
    (fitting.multi_lorentzian, np.array([1e3, 4e3, 2.0, 0.3])),
    (fitting.double_gaussian, np.array([-5.0, 2.0, 1.0, 6.0, 3.0, 0.7])),
    (fitting.multi_lorentzian,
     np.array([-8e3, 3e3, 1.0, 9e3, 5e3, 0.6, 0.2])),
])
def test_analytic_jacobians_match_finite_difference(model, p):
    if model is fitting.double_gaussian:
        x = np.linspace(-15, 15, 41)
    else:
        x = np.linspace(-20e3, 20e3, 41)
    _, jac = model(x, p)
    fd = fitting.finite_difference(lambda xx, pp: model(xx, pp)[0], p.size)
    _, jac_fd = fd(x, p)
    scale = np.abs(jac).max()
    # forward differences carry O(h) truncation error
    assert np.allclose(jac, jac_fd, rtol=0.0, atol=1e-3 * max(scale, 1.0))


def test_multi_lorentzian_is_sum_of_singles():
    x = np.linspace(-30e3, 30e3, 101)
    p = np.array([-5e3, 4e3, 2.0, 8e3, 6e3, 1.0, 0.5])
    y, _ = fitting.multi_lorentzian(x, p)
    y1, _ = fitting.multi_lorentzian(x, np.array([-5e3, 4e3, 2.0, 0.0]))
    y2, _ = fitting.multi_lorentzian(x, np.array([8e3, 6e3, 1.0, 0.0]))
    assert np.allclose(y, y1 + y2 + 0.5)


def test_covariance_scales_with_noise():
    x = np.linspace(-50e3, 50e3, 201)
    truth = np.array([0.0, 10e3, 5.0, 0.0])
    sigmas = []
    for noise in (0.05, 0.5):
        rng = np.random.default_rng(7)
        y, _ = fitting.multi_lorentzian(x, truth)
        y += rng.normal(0, noise, x.size)
        res = fitting.curve_fit(fitting.multi_lorentzian, x, y,
                                truth * 1.1 + 1.0)
        sigmas.append(res.sigma[0])
    assert sigmas[1] > 5 * sigmas[0]


def test_gradient_convergence_flag():
    x = np.linspace(-30e3, 30e3, 20)
    y, _ = fitting.multi_lorentzian(x, np.array([1e3, 8e3, 2.0, 0.1]))
    res = fitting.curve_fit(fitting.multi_lorentzian, x, y,
                            np.array([-2e3, 12e3, 1.0, 0.0]))
    assert res.converged and res.cost < 1e-12


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_convergence_does_not_depend_on_the_scale_of_the_data(scale):
    """A noisy two-Gaussian fit stops at the same minimum whatever the
    unit of y: the stationarity test compares the gradient with the
    residual and the Jacobian, not with a fixed 1e-10 * max(1, cost)."""
    rng = np.random.default_rng(0)
    x = np.linspace(-100.0, 100.0, 21)
    y, _ = fitting.double_gaussian(
        x, np.array([-40.0, 22.0, 6.0, 42.0, 20.0, 6.0]))
    y = (y + rng.normal(0.0, 1.5, x.size)) * scale
    p0 = np.array([-30.0, 15.0, 5.0 * scale, 30.0, 15.0, 5.0 * scale])
    res = fitting.curve_fit(fitting.double_gaussian, x, y, p0)
    assert res.converged
    assert res.cost > 1.0 * scale ** 2
