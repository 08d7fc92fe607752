"""Special functions for the kernels: Bessel J_0 and J_1, the radial ratio
J_nu(r)/r^nu of integer and half-integer order, Legendre polynomials, and
the radial Fourier kernels of spheres.

Everything is numpy.  J_0 and J_1 are the Cephes rational approximations
j0 and j1, with Cephes' coefficients and order of operations, evaluated in
place on chunks that stay in cache.  The ratio f_nu = J_nu(r)/r^nu, the
only form in which other orders enter, is its power series near 0 and
elsewhere its own upward recurrence from f_0 and f_1 or f_{-1/2} and
f_{1/2}, with no power of r.  P_l is the upward recurrence in the
difference form d_k = P_k - P_{k-1} that is accurate next to x = 1.  This
module fixes the domain (orders 0 <= nu <= NU_MAX in half steps, x >= 0,
|x| <= 1) and fills in the removable singularity of J_nu(r)/r^nu at
r = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Largest order the mpmath sweep in the tests checks (10 digits relative to
# the oscillation envelope on [0, 1e4]); larger orders are rejected as input.
NU_MAX = 10.0

# Radial kernels switch to their power series below this radius.
RADIAL_SERIES_SWITCH = 1e-6


def _order(nu) -> float:
    """The Bessel order nu as a float, checked: an integer or half-integer
    with 0 <= nu <= NU_MAX."""
    twice = 2.0 * float(nu)
    if abs(twice - round(twice)) > 1e-12:
        raise DomainError("order %r is not an integer or half-integer" % (nu,))
    nu = round(twice) / 2.0
    if nu < 0.0:
        raise DomainError("order nu=%g < 0 is not supported" % nu)
    if nu > NU_MAX:
        raise DomainError("order nu=%g exceeds the validated envelope nu <= %g" % (nu, NU_MAX))
    return nu


# ---------------------------------------------------------------------------
# J_0 and J_1: Cephes j0.c and j1.c (S. L. Moshier).  For x <= 5 a rational
# function in z = x^2 times the factors (z - r1)(z - r2) of the first two
# zeros; beyond, the Hankel amplitude and phase P(q), Q(q) as rational
# functions of q = 25/x^2.  Each polynomial is a row of coefficients,
# highest power first, left-padded with zeros so that the rows of one
# branch run through one Horner loop together (0 * q + c = c exactly, and a
# monic denominator carries its leading 1.0), which leaves every value bit
# for bit that of Cephes' polevl/p1evl.


def _rows(*polys) -> np.ndarray:
    width = max(len(p) for p in polys)
    return np.array([(0.0,) * (width - len(p)) + tuple(p) for p in polys])[:, :, None]


# rows: P numerator, P denominator, Q numerator, Q denominator
_J0_FAR = _rows(
    (7.96936729297347051624E-4, 8.28352392107440799803E-2, 1.23953371646414299388E0,
     5.44725003058768775090E0, 8.74716500199817011941E0, 5.30324038235394892183E0,
     9.99999999999999997821E-1),
    (9.24408810558863637013E-4, 8.56288474354474431428E-2, 1.25352743901058953537E0,
     5.47097740330417105182E0, 8.76190883237069594232E0, 5.30605288235394617618E0,
     1.00000000000000000218E0),
    (-1.13663838898469149931E-2, -1.28252718670509318512E0, -1.95539544257735972385E1,
     -9.32060152123768231369E1, -1.77681167980488050595E2, -1.47077505154951170175E2,
     -5.14105326766599330220E1, -6.05014350600728481186E0),
    (1.0, 6.43178256118178023184E1, 8.56430025976980587198E2, 3.88240183605401609683E3,
     7.24046774195652478189E3, 5.93072701187316984827E3, 2.06209331660327847417E3,
     2.42005740240291393179E2))
_J1_FAR = _rows(
    (7.62125616208173112003E-4, 7.31397056940917570436E-2, 1.12719608129684925192E0,
     5.11207951146807644818E0, 8.42404590141772420927E0, 5.21451598682361504063E0,
     1.00000000000000000254E0),
    (5.71323128072548699714E-4, 6.88455908754495404082E-2, 1.10514232634061696926E0,
     5.07386386128601488557E0, 8.39985554327604159757E0, 5.20982848682361821619E0,
     9.99999999999999997461E-1),
    (5.10862594750176621635E-2, 4.98213872951233449420E0, 7.58238284132545283818E1,
     3.66779609360150777800E2, 7.10856304998926107277E2, 5.97489612400613639965E2,
     2.11688757100572135698E2, 2.52070205858023719784E1),
    (1.0, 7.42373277035675149943E1, 1.05644886038262816351E3, 4.98641058337653607651E3,
     9.56231892404756170795E3, 7.99704160447350683650E3, 2.82619278517639096600E3,
     3.36093607810698293419E2))
# rows: numerator, denominator (in z = x^2)
_J0_NEAR = _rows(
    (-4.79443220978201773821E9, 1.95617491946556577543E12, -2.49248344360967716204E14,
     9.70862251047306323952E15),
    (1.0, 4.99563147152651017219E2, 1.73785401676374683123E5, 4.84409658339962045305E7,
     1.11855537045356834862E10, 2.11277520115489217587E12, 3.10518229857422583814E14,
     3.18121955943204943306E16, 1.71086294081043136091E18))
_J1_NEAR = _rows(
    (-8.99971225705559398224E8, 4.52228297998194034323E11, -7.27494245221818276015E13,
     3.68295732863852883286E15),
    (1.0, 6.20836478118054335476E2, 2.56987256757748830383E5, 8.35146791431949253037E7,
     2.21511595479792499675E10, 4.74914122079991414898E12, 7.84369607876235854894E14,
     8.95222336184627338078E16, 5.32278620332680085395E18))
# squares of the first two zeros of J_0 and of J_1
_J0_ZEROS_SQ = (5.78318596294678452118E0, 3.04712623436620863991E1)
_J1_ZEROS_SQ = (1.46819706421238932572E1, 4.92184563216946036703E1)
_SQRT_2_OVER_PI = 7.9788456080286535587989E-1
# phase shifts pi/4 and 3 pi/4 of the Hankel asymptotics
_J0_PHASE = 7.85398163397448309616E-1
_J1_PHASE = 2.35619449019234492885E0
_CEPHES_SPLIT = 5.0
# elements per chunk: the far branch keeps seven chunk-sized buffers
# (896 KiB), which stay in a core's L2 cache at this size
_CHUNK = 16384


def _horner(rows: np.ndarray, z: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Every row's polynomial at z, into acc (rows, n), as Cephes' polevl
    (whose first step c0 * z + c1 is taken without filling acc with c0)."""
    np.multiply(rows[:, 0], z, out=acc)
    for c in rows[:, 1:].transpose(1, 0, 2)[:-1]:
        np.add(acc, c, out=acc)
        np.multiply(acc, z, out=acc)
    np.add(acc, rows[:, -1], out=acc)
    return acc


def _j01_far(order: int, x, out, acc, w, q):
    """Cephes' x > 5 branch of j0/j1 into out, in the buffers acc, w, q."""
    np.divide(5.0, x, out=w)
    if order == 0:
        np.multiply(x, x, out=q)
        np.divide(25.0, q, out=q)
        rows, phase = _J0_FAR, _J0_PHASE
    else:
        np.multiply(w, w, out=q)
        rows, phase = _J1_FAR, _J1_PHASE
    p, p_den, qq, q_den = _horner(rows, q, acc)
    np.divide(p, p_den, out=p)
    np.divide(qq, q_den, out=qq)
    np.subtract(x, phase, out=q)
    np.cos(q, out=p_den)
    np.multiply(p, p_den, out=p)
    np.sin(q, out=q_den)
    np.multiply(w, qq, out=qq)
    np.multiply(qq, q_den, out=qq)
    np.subtract(p, qq, out=p)
    np.multiply(p, _SQRT_2_OVER_PI, out=p)
    np.sqrt(x, out=q)
    np.divide(p, q, out=out)


def _j01_near(order: int, x: np.ndarray) -> np.ndarray:
    """Cephes' x <= 5 branch of j0/j1."""
    z = x * x
    num, den = _horner(_J0_NEAR if order == 0 else _J1_NEAR, z, np.empty((2, x.size)))
    if order == 0:
        p = (z - _J0_ZEROS_SQ[0]) * (z - _J0_ZEROS_SQ[1])
        return np.where(x < 1e-5, 1.0 - z / 4.0, p * num / den)
    return num / den * x * (z - _J1_ZEROS_SQ[0]) * (z - _J1_ZEROS_SQ[1])


def _j01(order: int, x: np.ndarray) -> np.ndarray:
    """J_0 or J_1 on x >= 0 (any shape), bit for bit Cephes j0/j1.  The far
    branch runs on every entry, chunk by chunk in place, and then the near
    branch overwrites the few entries at x <= 5 in one pass."""
    flat = np.ascontiguousarray(x).reshape(-1)
    out = np.empty_like(flat)
    n = min(_CHUNK, flat.size)
    acc, w, q = np.empty((4, n)), np.empty(n), np.empty(n)
    # the far branch divides by x and overflows next to 0; its values at
    # x <= 5 are overwritten
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, flat.size, _CHUNK):
            xc = flat[lo:lo + _CHUNK]
            k = xc.size
            _j01_far(order, xc, out[lo:lo + _CHUNK], acc[:, :k], w[:k], q[:k])
    near = np.flatnonzero(flat <= _CEPHES_SPLIT)
    if near.size:
        out[near] = _j01_near(order, flat[near])
    return out.reshape(np.shape(x))


def bessel_j(order, x):
    """Bessel J_0 or J_1 (order 0 or 1) at x >= 0, a float or an array
    of the shape of x; other orders enter only through `bessel_ratio`."""
    if order not in (0, 1):
        raise DomainError("bessel_j serves orders 0 and 1, not %r; bessel_ratio "
                          "gives J_nu(r) / r^nu at every order" % (order,))
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise DomainError("bessel_j requires x >= 0")
    out = _j01(int(order), xa)
    return float(out) if xa.ndim == 0 else out


# ---------------------------------------------------------------------------
# Legendre polynomials


def legendre_step(k: int, x, p, d):
    """One step of legendre_p's recurrence: (P_k(x), d_k) to
    (P_{k+1}(x), d_{k+1}), with d_{k+1} = ((2k+1)/(k+1)) (x-1) P_k +
    (k/(k+1)) d_k and P_{k+1} = P_k + d_{k+1}.  d_k is P_k - P_{k-1} as the
    recurrence carries it, not the difference of the rounded values, so a
    caller continuing an ascent must keep both."""
    d = (2 * k + 1) / (k + 1) * (x - 1.0) * p + k / (k + 1) * d
    return p + d, d


def legendre_p(l: int, x):
    """Legendre polynomial P_l(x) on [-1, 1].

    The difference-form upward recurrence from P_1 = x and d_1 = x - 1 (see
    `legendre_step`), run on |x| with P_l(-x) = (-1)^l P_l(x): d_k is the
    accurate quantity only next to x = 1, so P_l(+-1) = +-1 exactly;
    |x| > 1 raises a domain error.
    """
    if l < 0 or not isinstance(l, (int, np.integer)):
        raise DomainError("degree l must be a nonnegative integer")
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0 + 1e-14):
        raise DomainError("legendre_p requires |x| <= 1")
    xa, sign = legendre_fold(np.clip(xa, -1.0, 1.0))
    if l == 0:
        out = np.ones_like(xa)
    else:
        out, d = xa, xa - 1.0
        for k in range(1, l):
            out, d = legendre_step(k, xa, out, d)
        if l % 2:
            out = out * sign
    return float(out) if xa.ndim == 0 else out


def legendre_fold(x):
    """(|x|, sign) with sign -1.0 where x < 0 and 1.0 elsewhere, so that
    P_l(x) = sign^l P_l(|x|); x >= 0 (-0.0 too) is returned as it is."""
    negative = x < 0.0
    return np.where(negative, -x, x), np.where(negative, -1.0, 1.0)


# ---------------------------------------------------------------------------
# radial kernels


def _ratio_series(nu: float, r: np.ndarray) -> np.ndarray:
    """J_nu(r) / r^nu = sum_k (-r^2/4)^k / (2^nu k! Gamma(nu + k + 1)),
    summed until the terms fall below 2^-60 of the sum (r < nu <= NU_MAX
    or r < RADIAL_SERIES_SWITCH keeps the largest term within 10 of the
    sum, which is positive there)."""
    q = -0.25 * r * r
    term = np.full(r.shape, math.exp(-math.lgamma(nu + 1.0)) / 2.0 ** nu)
    total = term.copy()
    for k in range(1, 200):
        term = term * q / (k * (nu + k))
        total += term
        if np.all(np.abs(term) <= 2.0 ** -60 * total):
            break
    return total


def _ratio_upward(nu: float, r: np.ndarray) -> np.ndarray:
    """J_nu(r) / r^nu for r > 0 by f_{k+1} = (2k f_k - f_{k-1}) / r^2, the
    recurrence J_{k+1} = (2k/r) J_k - J_{k-1} divided by r^{k+1}, stepped
    up from f_0 = J_0 and f_1 = J_1 / r (integer orders) or from
    f_{-1/2} = sqrt(2/pi) cos r and f_{1/2} = sqrt(2/pi) sin r / r
    (half-integer orders); orders 0, 1/2 and 1 take their one seed."""
    if nu == 0.0:
        return bessel_j(0, r)
    integer = nu == int(nu)
    k = 1.0 if integer else 0.5
    upper = bessel_j(1, r) / r if integer else _SQRT_2_OVER_PI * np.sin(r) / r
    if nu == k:
        return upper
    lower = bessel_j(0, r) if integer else _SQRT_2_OVER_PI * np.cos(r)
    r2 = r * r
    while k < nu:
        lower, upper = upper, (2.0 * k * upper - lower) / r2
        k += 1.0
    return upper


def bessel_ratio(order, r):
    """J_nu(r) / r^nu for r >= 0, with the removable singularity at r = 0
    filled in, computed as the ratio itself (no power of r is taken).

    The power series serves r < RADIAL_SERIES_SWITCH and, for nu > 1,
    r < nu, where the upward recurrence is unstable; its leading
    coefficient, the value at r = 0, is 1 / (2^nu Gamma(nu+1)).  The
    upward recurrence serves the rest.
    """
    nu = _order(order)
    ra = np.asarray(r, dtype=float)
    scalar = ra.ndim == 0
    ra = np.atleast_1d(ra)
    if np.any(ra < 0.0):
        raise DomainError("bessel_ratio requires r >= 0")
    series = ra < (nu if nu > 1.0 else RADIAL_SERIES_SWITCH)
    if series.all():
        out = np.empty_like(ra)
    else:
        # the recurrence runs on every entry and the series overwrites the
        # ones it serves; there the recurrence starts from a radius past
        # Cephes' near branch, so that branch runs only on entries it keeps
        # (r * r may still overflow at huge radii, to a value that is kept)
        seeds = np.where(series, 2.0 * _CEPHES_SPLIT, ra) if series.any() else ra
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = _ratio_upward(nu, seeds)
    if series.any():
        out[series] = _ratio_series(nu, ra[series])
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
