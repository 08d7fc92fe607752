"""Special functions for the kernels: Bessel J of integer/half-integer order,
Legendre polynomials, and the radial Fourier kernels of spheres.

J_nu and P_l are evaluated by scipy.special: order 0 (the 2-D radial
kernels sphere_fourier(2, .) and universal_covariance(2, .)) by the Cephes
routine j0, order 1 (the 2-D Weyl leading term) by j1, every other order by
the general-order AMOS routine jv, and P_l by eval_legendre.  This module
fixes the domain (orders -1 <= nu <= NU_MAX in half steps, x >= 0,
|x| <= 1) and fills in the removable singularity of J_nu(r)/r^nu at r = 0.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import eval_legendre, j0, j1, jv

from .errors import DomainError

# Largest order the mpmath sweep in the tests checks (10 digits relative to
# the oscillation envelope on [0, 1e4]); larger orders are rejected as input.
NU_MAX = 10.0

# Radial kernels switch to their Taylor limit below this radius.
RADIAL_SERIES_SWITCH = 1e-6


def _order(nu) -> float:
    """The Bessel order nu as a float, checked: an integer or half-integer
    with -1 <= nu <= NU_MAX."""
    twice = 2.0 * float(nu)
    if abs(twice - round(twice)) > 1e-12:
        raise DomainError("order %r is not an integer or half-integer" % (nu,))
    nu = round(twice) / 2.0
    if nu < -1.0:
        raise DomainError("order nu=%g < -1 is not supported" % nu)
    if nu > NU_MAX:
        raise DomainError("order nu=%g exceeds the validated envelope nu <= %g" % (nu, NU_MAX))
    return nu


def bessel_j(order, x):
    """Bessel function of the first kind J_nu(x) for x >= 0.

    Parameters
    ----------
    order : int | float
        Integer or half-integer order, -1 <= nu <= NU_MAX.
    x : float or array_like
        Nonnegative argument(s).

    Returns
    -------
    float or ndarray, matching the shape of `x`.
    """
    nu = _order(order)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise DomainError("bessel_j requires x >= 0")
    if nu == 0.0:
        out = j0(xa)
    elif nu == 1.0:
        out = j1(xa)
    else:
        out = jv(nu, xa)
    return float(out) if xa.ndim == 0 else out


def legendre_p(l: int, x):
    """Legendre polynomial P_l(x) on [-1, 1].

    P_l(1) = 1 exactly; |x| > 1 raises a domain error.
    """
    if l < 0 or not isinstance(l, (int, np.integer)):
        raise DomainError("degree l must be a nonnegative integer")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0 + 1e-14):
        raise DomainError("legendre_p requires |x| <= 1")
    out = eval_legendre(l, np.clip(xa, -1.0, 1.0))
    return float(out) if xa.ndim == 0 else out


def bessel_ratio(order, r):
    """J_nu(r) / r^nu, with the removable singularity at r = 0 filled in.

    For r < RADIAL_SERIES_SWITCH a 4-term Taylor expansion is used; the
    leading coefficient is 1 / (2^nu Gamma(nu+1)).
    """
    nu = _order(order)
    ra = np.asarray(r, dtype=float)
    scalar = ra.ndim == 0
    ra = np.atleast_1d(ra)
    if np.any(ra < 0.0):
        raise DomainError("bessel_ratio requires r >= 0")
    out = np.empty_like(ra)
    tiny = ra < RADIAL_SERIES_SWITCH
    if np.any(tiny):
        rt = ra[tiny]
        q = rt * rt / 4.0
        acc = np.zeros_like(rt)
        for k in range(3, -1, -1):
            c = (-1.0) ** k * math.exp(-math.lgamma(k + 1.0) - math.lgamma(nu + k + 1.0))
            acc = acc * q + c
        out[tiny] = acc / 2.0 ** nu
    if np.any(~tiny):
        rb = ra[~tiny]
        out[~tiny] = bessel_j(nu, rb) / rb ** nu
    return float(out[0]) if scalar else out


def _check_dim(n: int):
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise DomainError("dimension n must be an integer >= 2")


def sphere_fourier(n: int, r):
    """Radial profile of the unit-sphere Fourier transform.

    S_n(r) = integral of e^{i<w,sigma>} over S^{n-1}, with r = |w|; equals
    (2 pi)^{n/2} J_{(n-2)/2}(r) / r^{(n-2)/2} and S_n(0) = area(S^{n-1}).
    """
    _check_dim(n)
    return (2.0 * np.pi) ** (n / 2.0) * bessel_ratio((n - 2) / 2.0, r)


def universal_covariance(n: int, r):
    """Universal scaling limit of the rescaled monochromatic covariance.

    (2 pi)^{-n/2} J_{(n-2)/2}(r) / r^{(n-2)/2}; the r = 0 value is the
    analytic limit (2 pi)^{-n/2} / (2^{(n-2)/2} Gamma(n/2)).
    """
    _check_dim(n)
    return (2.0 * np.pi) ** (-n / 2.0) * bessel_ratio((n - 2) / 2.0, r)
