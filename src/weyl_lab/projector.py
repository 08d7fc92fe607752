"""The two-point Weyl law: Bessel closed-form leading term, remainder
extraction, scaling scans, and the cluster-vs-Bessel comparison.

Leading-term derivatives are exact Bessel-ladder formulas chain-ruled
through w = torus_log(x, y); no finite differences anywhere (they would
contaminate exponent fits at scale lambda * d).  The leading term takes
lambda grids and point arrays as `spectral_function` does, so a scan's
remainder is one subtraction of (L, P) arrays.  The scans take their pair
set the same way, as two points or (P, dim) point arrays, and measure it
with the model's own `distance` and `injectivity_radius`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice as lat
from .analysis import ScanReport, scan_report
from .errors import DomainError, PreconditionError
from .manifolds import (
    ZERO_DERIV,
    DerivIndex,
    FlatTorus,
    ModelManifold,
    _lambda_values,
    cluster_kernel,
    spectral_function,
    spectral_window,
)
from .specfun import bessel_ratio


def _profile_derivative(nu: float, u: np.ndarray, gamma) -> np.ndarray:
    """D^gamma of (2 pi)^{n/2} J_nu(|u|)/|u|^nu for each u in R^n, the rows
    of a (..., n) array, |gamma| <= 2, via d/dr [J_nu(r)/r^nu] =
    -r * J_{nu+1}(r)/r^{nu+1}.  nu = n/2 is the unit-ball Fourier
    transform, nu = (n-2)/2 the unit-sphere one."""
    r = lat.row_norms(u)
    c = (2.0 * np.pi) ** (u.shape[-1] / 2.0)
    # the ladder runs f_nu, f_{nu+1}, f_{nu+2}
    idx = [j for j, g in enumerate(gamma) for _ in range(g)]
    if not idx:
        return c * bessel_ratio(nu, r)
    if len(idx) == 1:
        return -c * u[..., idx[0]] * bessel_ratio(nu + 1.0, r)
    i, j = idx
    val = u[..., i] * u[..., j] * bessel_ratio(nu + 2.0, r)
    if i == j:
        val -= bessel_ratio(nu + 1.0, r)
    return c * val


def _combined_gamma(m: FlatTorus, d: DerivIndex):
    alpha, beta = d.padded(m.dim)
    return alpha, tuple(a + b for a, b in zip(alpha, beta))


def leading_term(m: FlatTorus, lam, x, y, d: DerivIndex = ZERO_DERIV):
    """Universal ball-Fourier leading term of the two-point Weyl law on a
    flat torus: (lambda^n/(2pi)^n) * B_n(lambda * d_g(x,y)), with exact
    closed-form derivatives.  Grids, point arrays and the result's shape
    are as in `spectral_function`, with the bits of scalar calls."""
    if not isinstance(m, FlatTorus):
        raise DomainError("leading_term is defined on flat tori")
    lams, scalar = _lambda_values(lam)
    if lams[0] <= 0.0:
        raise DomainError("lambda must be positive")
    n = m.dim
    w = lat.torus_log(m.lattice, x, y)
    alpha, gamma = _combined_gamma(m, d)
    # the lambda factors are taken in Python floats: numpy's array power
    # does not round as the scalar pow does
    sign, order = (-1.0) ** sum(alpha), int(sum(gamma))
    scale = np.array([lam**n / (2.0 * np.pi) ** n * (sign * lam**order) for lam in lams.tolist()])
    lam_axes = (-1,) + (1,) * (w.ndim - 1)
    values = scale.reshape(lam_axes) * _profile_derivative(
        n / 2.0, lams.reshape(lam_axes + (1,)) * w, gamma)
    values = values[0] if scalar else values
    return float(values) if values.ndim == 0 else values


def _scan_pairs(m: ModelManifold, x, y):
    """A scan's pair set as two (P, dim) arrays, paired as in `point_pairs`,
    and the pairs' distances; DomainError when the set is empty."""
    xs, ys, _ = lat.point_pairs(x, y)
    if len(xs) == 0:
        raise DomainError("the pair set is empty: a scan needs at least one (x, y) pair")
    return xs, ys, m.distance(xs, ys)


def remainder_scan(m: FlatTorus, lambda_grid, x, y, d: DerivIndex = ZERO_DERIV) -> ScanReport:
    """Sup over the pairs (x, y) of |remainder| per lambda, with a log-log
    exponent fit (empirical growth of the Weyl remainder).  The exact
    kernel and the leading term of the whole (lambda, pair) grid are one
    call each, so the dual lattice is enumerated once."""
    xs, ys, dists = _scan_pairs(m, x, y)
    if d.total_order % 2 and not dists.any():
        raise DomainError("every pair lies on the diagonal, where an odd total derivative "
                          "order (%d) makes the kernel and the leading term vanish by the "
                          "k <-> -k symmetry: there is no remainder to fit" % d.total_order)
    bound = 0.5 * m.injectivity_radius
    far = dists > bound + 1e-12
    if far.any():
        raise PreconditionError("pair at distance %.6g violates d_g(x,y) (half the injectivity "
                                "radius) <= %.6g" % (dists[far][0], bound))
    remainders = (spectral_function(m, lambda_grid, xs, ys, d)
                  - leading_term(m, lambda_grid, xs, ys, d))
    return scan_report(lambda_grid, np.max(np.abs(remainders), axis=1))


def offdiagonal_scan(m: ModelManifold, lambda_grid, eps: float, x, y) -> ScanReport:
    """Sup over the pairs (x, y) at distance >= eps of |E_lambda(x,y)| per
    lambda, with the fitted growth exponent; one `spectral_function` call."""
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    xs, ys, dists = _scan_pairs(m, x, y)
    near = dists < eps - 1e-12
    if near.any():
        raise PreconditionError("pair at distance %.6g violates d_g >= %.6g"
                                % (dists[near][0], eps))
    values = spectral_function(m, lambda_grid, xs, ys)
    return scan_report(lambda_grid, np.max(np.abs(values), axis=1))


@dataclass(frozen=True, eq=False)
class ClusterBesselTable:
    """Cluster kernel along a geodesic vs the width * F'(mean shell radius)
    Bessel prediction; errors also reported in units of the diagonal value."""

    dists: np.ndarray
    cluster: np.ndarray
    bessel_prediction: np.ndarray
    abs_error: np.ndarray
    diagonal: float
    mean_shell_radius: float


def _window_mean_shell_radius(m: ModelManifold, lam: float, width: float) -> float:
    win = spectral_window(m, lam, lam + width)
    if win.roots.size == 0:
        return lam + 0.5 * width
    return float(np.mean(np.repeat(win.roots, win.mults)))


def _unit_direction(dim: int, direction):
    """`direction`, the first axis when None, scaled to unit length; a
    direction of no length (zero or nan) is refused."""
    direction = np.eye(dim)[0] if direction is None else np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if not norm > 0.0:
        raise DomainError("geodesic direction %s has no length" % direction)
    return direction / norm


def cluster_prediction(m: ModelManifold, lam: float, width: float, dist,
                       d: DerivIndex = ZERO_DERIV, direction=None):
    """width * (lam_mid^{n-1}/(2pi)^{n/2}) J_{(n-2)/2}(lam_mid d)/(lam_mid d)^{(n-2)/2},
    the Taylor step F(lam+width) - F(lam) ~ width * F'(lam_mid) evaluated at
    the window's multiplicity-weighted mean shell radius."""
    n = m.dim
    if not (d.is_zero or isinstance(m, FlatTorus)):
        raise DomainError("derivative predictions are torus-only")
    lam_mid = _window_mean_shell_radius(m, lam, width)
    dist = np.asarray(dist, dtype=float)
    direction = _unit_direction(n, direction)
    alpha, gamma = _combined_gamma(m, d)
    base = width * lam_mid ** (n - 1) / (2.0 * np.pi) ** n
    scale = (-1.0) ** sum(alpha) * lam_mid ** int(sum(gamma))
    vals = base * scale * _profile_derivative(
        (n - 2) / 2.0, (lam_mid * dist)[..., None] * direction, gamma)
    return (float(vals), float(lam_mid)) if np.ndim(vals) == 0 else (vals, float(lam_mid))


def geodesic_points(m: ModelManifold, dists, x0=None, direction=None):
    """(x0, points, unit direction): the points at distances `dists` along
    a unit-speed geodesic from x0.  On a torus x0 defaults to the origin and
    the direction to the first axis.  On the sphere the geodesic is the
    meridian from the north pole (sphere kernels are rotation invariant), so
    x0 may only name that pole, no direction is taken, and None is returned
    for it.  Distances must be nonnegative."""
    dists = np.asarray(dists, dtype=float)
    if np.any(dists < 0.0):
        raise DomainError("distances must be nonnegative")
    if isinstance(m, FlatTorus):
        x0 = np.zeros(m.dim) if x0 is None else np.asarray(x0, dtype=float)
        direction = _unit_direction(m.dim, direction)
        return x0, x0 + dists[:, None] * direction, direction
    north = m.radius * np.array([0.0, 0.0, 1.0])
    if direction is not None or (x0 is not None and not np.array_equal(x0, north)):
        raise DomainError("x0 and direction are torus only: sphere geodesics run "
                          "along a meridian from the north pole")
    t = dists / m.radius
    return north, m.radius * np.stack([np.sin(t), np.zeros_like(t), np.cos(t)], axis=1), None


def cluster_vs_bessel(m: ModelManifold, lam: float, width: float, x0, dist_grid,
                      d: DerivIndex = ZERO_DERIV, direction=None) -> ClusterBesselTable:
    """Cluster kernel along a geodesic from x0 (see `geodesic_points`)
    against the universal Bessel prediction of the window."""
    dist_grid = np.asarray(dist_grid, dtype=float)
    x0, points, direction = geodesic_points(m, dist_grid, x0, direction)
    if np.max(dist_grid) > 0.5 * m.injectivity_radius:
        raise PreconditionError("distance grid exceeds half the injectivity radius")
    # one window for the geodesic points and, last, the diagonal
    values = cluster_kernel(m, lam, width, x0, np.vstack([points, x0]), d)
    cluster, diagonal = values[:-1], values[-1]
    prediction, lam_mid = cluster_prediction(m, lam, width, dist_grid, d,
                                             direction=direction)
    return ClusterBesselTable(
        dists=dist_grid,
        cluster=cluster,
        bessel_prediction=prediction,
        abs_error=np.abs(cluster - prediction),
        diagonal=float(diagonal),
        mean_shell_radius=lam_mid,
    )
