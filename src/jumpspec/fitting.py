"""Damped Gauss--Newton (Levenberg--Marquardt) least squares with
analytic Jacobians, plus the line-shape models used by the analysis
pipelines.

The optimizer accepts steps only when the cost decreases, so the cost
history is monotone by construction; convergence requires the residual
to be orthogonal to every column of the Jacobian, to a scale-free
tolerance (MINPACK's gtol test).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


LAM0 = 1e-3         # damping of the first step
GTOL = 1e-8         # largest cosine between r and a column of J (see
                    # levenberg_marquardt)
XTOL = 1e-12        # relative step tolerance
FD_STEP = 1e-7      # relative step of finite_difference


class FitError(RuntimeError):
    """A fit found no converged solution."""


@dataclass(frozen=True)
class FitResult:
    x: np.ndarray
    covariance: np.ndarray
    cost: float
    cost_history: np.ndarray     # accepted-step costs, monotone decreasing
    grad_norm: float
    n_iter: int
    converged: bool

    @property
    def sigma(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


def levenberg_marquardt(residual_jac, x0, *, max_iter: int = 200) -> FitResult:
    """Minimize 0.5*||r(x)||^2 given residual_jac(x) -> (r, J).

    Converged when the largest cosine between r and a column of J is at
    most GTOL (``_stationary``), or when an accepted step moves x by less
    than XTOL relative. The cosine does not change when r or a parameter
    is rescaled, so a minimum of any cost is recognised, also one where
    the damping grows until no step is tried any more.
    """
    x = np.asarray(x0, dtype=float).copy()
    lam = LAM0
    r, jac = residual_jac(x)
    cost = 0.5 * float(r @ r)
    history = [cost]
    grad = jac.T @ r
    n_iter = 0
    converged = _stationary(jac, r, grad)
    while n_iter < max_iter and not converged:
        n_iter += 1
        jtj = jac.T @ jac
        diag = np.diag(np.clip(np.diag(jtj), 1e-300, None))
        try:
            step = np.linalg.solve(jtj + lam * diag, -grad)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        x_new = x + step
        r_new, jac_new = residual_jac(x_new)
        cost_new = 0.5 * float(r_new @ r_new)
        if np.isfinite(cost_new) and cost_new < cost:
            rel_move = np.linalg.norm(step) / max(np.linalg.norm(x), 1e-300)
            x, r, jac, cost = x_new, r_new, jac_new, cost_new
            grad = jac.T @ r
            history.append(cost)
            lam = max(lam / 3.0, 1e-14)
            converged = _stationary(jac, r, grad) or rel_move < XTOL
        else:
            lam *= 10.0
            if lam > 1e14:
                break
    return FitResult(x=x, covariance=_covariance(jac, r), cost=cost,
                     cost_history=np.array(history),
                     grad_norm=float(np.linalg.norm(grad)),
                     n_iter=n_iter, converged=converged)


def _stationary(jac, r, grad) -> bool:
    """max_j |J_j . r| / (||J_j|| ||r||) <= GTOL; a zero residual is
    stationary, and a NaN one is not."""
    r_norm = float(np.linalg.norm(r))
    if r_norm == 0.0:
        return True
    cols = np.linalg.norm(jac, axis=0) * r_norm
    cosine = np.abs(grad) / np.where(cols > 0.0, cols, 1.0)
    return bool(cosine.max() <= GTOL)


def _covariance(jac, r):
    m, n = jac.shape
    dof = max(m - n, 1)
    sigma2 = float(r @ r) / dof
    jtj = jac.T @ jac
    try:
        return sigma2 * np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        return np.full((n, n), np.nan)


def curve_fit(model_jac, x, y, p0) -> FitResult:
    """Fit y ~ model(x; p) with model_jac(x, p) -> (values, jacobian)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def residual(p):
        val, jac = model_jac(x, p)
        return val - y, jac

    return levenberg_marquardt(residual, p0)


# ---------------------------------------------------------------------------
# model library: each returns (values, d(values)/d(params))

def multi_lorentzian(x, p):
    """p = (c1, w1, a1, ..., cn, wn, an, offset): shared additive offset;
    each amplitude is its peak's height above the offset."""
    n = (len(p) - 1) // 3
    off = p[-1]
    val = np.full(x.size, off)
    jac = np.zeros((x.size, len(p)))
    jac[:, -1] = 1.0
    for k in range(n):
        center, fwhm, amp = p[3 * k:3 * k + 3]
        u = 2.0 * (x - center) / fwhm
        denom = 1.0 + u * u
        val += amp / denom
        d_denom = -amp / denom ** 2
        jac[:, 3 * k] = d_denom * (-4.0 * u / fwhm)
        jac[:, 3 * k + 1] = d_denom * (-2.0 * u * u / fwhm)
        jac[:, 3 * k + 2] = 1.0 / denom
    return val, jac


def double_gaussian(x, p):
    """p = (c1, s1, a1, c2, s2, a2): sum of two Gaussians, no offset."""
    val = np.zeros(x.size)
    jac = np.zeros((x.size, 6))
    for k in range(2):
        center, sigma, amp = p[3 * k:3 * k + 3]
        u = (x - center) / sigma
        e = np.exp(-0.5 * u * u)
        val += amp * e
        jac[:, 3 * k] = amp * e * u / sigma
        jac[:, 3 * k + 1] = amp * e * u * u / sigma
        jac[:, 3 * k + 2] = e
    return val, jac


def finite_difference(model, n_params):
    """Wrap a plain model(x, p) -> values into a (values, jacobian) pair,
    by forward differences of relative step ``FD_STEP``."""

    def model_jac(x, p):
        p = np.asarray(p, dtype=float)
        val = model(x, p)
        jac = np.empty((np.size(val), n_params))
        for k in range(n_params):
            dp = FD_STEP * max(abs(p[k]), 1.0)
            p_hi = p.copy()
            p_hi[k] += dp
            jac[:, k] = (model(x, p_hi) - val) / dp
        return val, jac

    return model_jac
