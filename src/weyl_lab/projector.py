"""The two-point Weyl law: Bessel closed-form leading term, remainder
extraction, scaling scans, and the cluster-vs-Bessel comparison.

Leading-term derivatives are exact Bessel-ladder formulas chain-ruled
through w = torus_log(x, y); no finite differences anywhere (they would
contaminate exponent fits at scale lambda * d).
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
    RoundSphere2,
    cluster_kernel,
    spectral_function,
    spectral_window,
    sphere_angle,
)
from .specfun import bessel_ratio


def _profile_derivative(nu: float, u: np.ndarray, gamma) -> float:
    """D^gamma of (2 pi)^{n/2} J_nu(|u|)/|u|^nu for u in R^n, |gamma| <= 2,
    via d/dr [J_nu(r)/r^nu] = -r * J_{nu+1}(r)/r^{nu+1}.  nu = n/2 is the
    unit-ball Fourier transform, nu = (n-2)/2 the unit-sphere one."""
    r = float(np.linalg.norm(u))
    c = (2.0 * np.pi) ** (u.size / 2.0)
    total = int(sum(gamma))
    # the ladder runs f_nu, f_{nu+1}, f_{nu+2}
    if total == 0:
        return c * float(bessel_ratio(nu, r))
    idx = [j for j, g in enumerate(gamma) for _ in range(g)]
    if total == 1:
        (j,) = idx
        return -c * float(u[j]) * float(bessel_ratio(nu + 1.0, r))
    i, j = idx
    val = float(u[i]) * float(u[j]) * float(bessel_ratio(nu + 2.0, r))
    if i == j:
        val -= float(bessel_ratio(nu + 1.0, r))
    return c * val


def _combined_gamma(m: FlatTorus, d: DerivIndex):
    alpha, beta = d.padded(m.dim)
    return alpha, tuple(a + b for a, b in zip(alpha, beta))


def leading_term(m: FlatTorus, lam: float, x, y, d: DerivIndex = ZERO_DERIV) -> float:
    """Universal ball-Fourier leading term of the two-point Weyl law on a
    flat torus: (lambda^n/(2pi)^n) * B_n(lambda * d_g(x,y)), with exact
    closed-form derivatives."""
    if not isinstance(m, FlatTorus):
        raise DomainError("leading_term is defined on flat tori")
    if lam <= 0.0:
        raise DomainError("lambda must be positive")
    n = m.dim
    w = lat.torus_log(m.lattice, x, y)
    alpha, gamma = _combined_gamma(m, d)
    base = lam**n / (2.0 * np.pi) ** n
    deriv_scale = (-1.0) ** sum(alpha) * lam ** int(sum(gamma))
    return base * deriv_scale * _profile_derivative(n / 2.0, lam * w, gamma)


def _check_pairs_within(m: FlatTorus, point_pairs, bound: float, what: str):
    for x, y in point_pairs:
        dval = lat.torus_distance(m.lattice, x, y)
        if dval > bound + 1e-12:
            raise PreconditionError(
                "pair at distance %.6g violates %s <= %.6g" % (dval, what, bound))


def _pair_arrays(point_pairs):
    """(x, y) pairs as two (P, dim) arrays."""
    if len(point_pairs) == 0:
        raise DomainError("the pair set is empty: a scan needs at least one (x, y) pair")
    xs, ys = zip(*point_pairs)
    return np.array(xs, dtype=float), np.array(ys, dtype=float)


def remainder_scan(m: FlatTorus, lambda_grid, point_pairs,
                   d: DerivIndex = ZERO_DERIV) -> ScanReport:
    """Sup over the pair set of |remainder| per lambda, with a log-log
    exponent fit (empirical growth of the Weyl remainder).  The exact
    kernel of the whole (lambda, pair) grid is one `spectral_function`
    call, so the dual lattice is enumerated once."""
    grid = np.asarray(lambda_grid, dtype=float)
    _check_pairs_within(m, point_pairs, 0.5 * lat.injectivity_radius(m.lattice),
                        "d_g(x,y) (half the injectivity radius)")
    exact = spectral_function(m, grid, *_pair_arrays(point_pairs), d)
    sups = np.empty(grid.size)
    for i, lam in enumerate(grid):
        sups[i] = max(abs(e - leading_term(m, lam, x, y, d))
                      for e, (x, y) in zip(exact[i], point_pairs))
    return scan_report(grid, sups)


def offdiagonal_scan(m: ModelManifold, lambda_grid, eps: float, sample_pairs) -> ScanReport:
    """Sup over pairs at distance >= eps of |E_lambda(x,y)| per lambda,
    with the fitted growth exponent; one `spectral_function` call."""
    grid = np.asarray(lambda_grid, dtype=float)
    if eps <= 0.0:
        raise DomainError("eps must be positive")
    for x, y in sample_pairs:
        if isinstance(m, RoundSphere2):
            dval = sphere_angle(m, x, y) * m.radius
        else:
            dval = lat.torus_distance(m.lattice, x, y)
        if dval < eps - 1e-12:
            raise PreconditionError("pair at distance %.6g violates d_g >= %.6g" % (dval, eps))
    values = spectral_function(m, grid, *_pair_arrays(sample_pairs))
    return scan_report(grid, np.max(np.abs(values), axis=1))


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


def cluster_prediction(m: ModelManifold, lam: float, width: float, dist,
                       d: DerivIndex = ZERO_DERIV, direction=None,
                       lam_mid: float | None = None):
    """width * (lam_mid^{n-1}/(2pi)^{n/2}) J_{(n-2)/2}(lam_mid d)/(lam_mid d)^{(n-2)/2},
    the Taylor step F(lam+width) - F(lam) ~ width * F'(lam_mid) evaluated at
    the window's multiplicity-weighted mean shell radius."""
    n = m.dim
    if lam_mid is None:
        lam_mid = _window_mean_shell_radius(m, lam, width)
    dist = np.asarray(dist, dtype=float)
    scalar = dist.ndim == 0
    dist = np.atleast_1d(dist)
    if d.is_zero:
        vals = (width * lam_mid ** (n - 1) / (2.0 * np.pi) ** n
                * (2.0 * np.pi) ** (n / 2.0) * bessel_ratio((n - 2) / 2.0, lam_mid * dist))
    else:
        if not isinstance(m, FlatTorus):
            raise DomainError("derivative predictions are torus-only")
        direction = (np.eye(n)[0] if direction is None
                     else np.asarray(direction, dtype=float))
        direction = direction / np.linalg.norm(direction)
        alpha, gamma = _combined_gamma(m, d)
        base = width * lam_mid ** (n - 1) / (2.0 * np.pi) ** n
        scale = (-1.0) ** sum(alpha) * lam_mid ** int(sum(gamma))
        vals = np.array([
            base * scale * _profile_derivative((n - 2) / 2.0, lam_mid * r * direction, gamma)
            for r in dist
        ])
    return (float(vals[0]), float(lam_mid)) if scalar else (vals, float(lam_mid))


def geodesic_points(m: ModelManifold, dists, x0=None, direction=None):
    """(x0, points, unit direction): the points at distances `dists` along
    a unit-speed geodesic from x0.  On a torus x0 defaults to the origin and
    the direction to the first axis.  On the sphere the geodesic is the
    meridian from the north pole (sphere kernels are rotation invariant), so
    x0 may only name that pole, no direction is taken, and None is returned
    for it."""
    dists = np.asarray(dists, dtype=float)
    if isinstance(m, FlatTorus):
        x0 = np.zeros(m.dim) if x0 is None else np.asarray(x0, dtype=float)
        direction = (np.eye(m.dim)[0] if direction is None
                     else np.asarray(direction, dtype=float))
        norm = np.linalg.norm(direction)
        if not norm > 0.0:
            raise DomainError("geodesic direction %s has no length" % direction)
        direction = direction / norm
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
    if np.any(dist_grid < 0.0):
        raise DomainError("distances must be nonnegative")
    inj = (lat.injectivity_radius(m.lattice) if isinstance(m, FlatTorus)
           else np.pi * m.radius)
    if np.max(dist_grid) > 0.5 * inj:
        raise PreconditionError("distance grid exceeds half the injectivity radius")
    x0, points, direction = geodesic_points(m, dist_grid, x0, direction)
    # one window for the geodesic points and, last, the diagonal
    values = cluster_kernel(m, lam, width, x0, np.vstack([points, x0]), d)
    cluster, diagonal = values[:-1], values[-1]
    prediction, lam_mid = cluster_prediction(m, lam, width, dist_grid, d,
                                             direction=direction)
    return ClusterBesselTable(
        dists=dist_grid,
        cluster=cluster,
        bessel_prediction=np.asarray(prediction),
        abs_error=np.abs(cluster - np.asarray(prediction)),
        diagonal=float(diagonal),
        mean_shell_radius=lam_mid,
    )
