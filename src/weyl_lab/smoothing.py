"""Fourier-mollified projector and its method-of-images evaluation on flat
tori.

The time-domain wave kernel is never materialized: integrating the cutoff
rho_hat(At) sin(t lambda)/t against a fixed frequency tau gives exactly the
multiplier

    m_{lambda,A}(tau) = (1/pi) int rho_hat(At) sin(t lambda)/t cos(t tau) dt
                      = (J((lambda+tau)/A) + sign(lambda-tau) J(|lambda-tau|/A))/pi

with J(nu) = int_0^support rho_hat(u) sin(u nu)/u du (substitute u = At in
the product-to-sum split).  J depends on neither lambda nor A, so each
MollifierSpec gets one Chebyshev table of J, built on first use, validated
when it is built (panel doubling, trailing coefficients, distance from pi/2
past the table's end) and shared by every multiplier evaluation.  Calls do
not sum that global series (degree ~600): it is cut into P ~ degree/8
equal panels, each a degree-24 series checked against the global one at
every panel edge when the table is built, so a J value costs one panel
lookup and a 25-step Clenshaw recurrence.

The spectral side is a multiplier-weighted mode sum and each deck image
contributes the radial integral (2pi)^{-n} int m(r) r^{n-1} S_n(r |w|) dr.
Their equality is Poisson summation (exact on flat tori by finite
propagation speed), which the tests exercise as an oracle.  The mode sum is
separable: a dual point is k = G c with c an integer vector, so
<k, y - x> = <c, theta> with theta = G^T (y - x).  The weights m(|G c|) are
kept on the coefficient box of the tail ball (zero outside the ball) and
contracted one axis at a time with per-axis tables exp(i c_j theta_j) for
every pair at once, which takes O(n M P) trig evaluations for box
half-width M and P pairs instead of one cosine per mode and pair.  The
images side enumerates the period lattice once per call and evaluates the
radial kernel of every image of every pair in one pass.

The radial rule is sized by band limit: m(r) = int g(t) e^{itr} dt is the
transform of g(t) = rho_hat(At) sin(t lambda)/(pi t), supported in
|t| <= T = support/A, so m has exponential type T; S_n(r |w|) has type
|w| <= T and r^{n-1} type 0, so the integrand has type at most 2T.  Its
16-node Gauss-Legendre panels hold 16/13 periods of frequency 2T (13 nodes
per shortest period, as in the J-table build), so the panel width is
pi A / support times 16/13 and does not depend on lambda.

Images with |w| >= support/A vanish identically: the integrand's time
support [|w|, inf) misses the cutoff's. Truncation radii are computed from
fitted h-decay constants with a 2x safety factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from . import lattice as lat
from .errors import DomainError, QuadratureError
from .manifolds import FlatTorus, ModelManifold, point_pairs
from .specfun import sphere_fourier

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# 16-node panels sized for ~13 nodes per oscillation period
_PANEL_PERIODS = 16.0 / 13.0
# J is tabulated on [0, nu0] with nu0 * (support - plateau) = 420; past
# that the exp-bridge keeps |J - pi/2| near 1e-14
_NU0_TRANSITION = 420.0
# J' is band-limited to [-support, support]; the Chebyshev coefficients
# reach the rounding floor near degree 0.6 nu0 support
_DEGREE_PER_BANDWIDTH = 0.65
_TABLE_TOL = 1e-13
_TABLE_DOUBLINGS = 1
# calls evaluate J panel by panel: one panel per 8 global coefficients,
# each a series of degree 24 (truncation below the series' own ~2e-14
# rounding; one panel per 11 coefficients already fails the 1e-13 check)
_DEGREE_PER_PANEL = 8
_PANEL_DEGREE = 24
# the spectral sum stops where the fitted h-decay puts |m| below this
_TAIL_THRESHOLD = 1e-12


@dataclass(frozen=True)
class MollifierSpec:
    """Even C^inf cutoff rho_hat: identically 1 on [-plateau, plateau],
    identically 0 outside (-support, support), exp-bridge in between."""

    plateau: float
    support: float

    def __post_init__(self):
        if not (0.0 < self.plateau < self.support):
            raise DomainError("need 0 < plateau < support")

    @classmethod
    def for_manifold(cls, m: ModelManifold) -> "MollifierSpec":
        """The cutoff tied to the injectivity radius: plateau = inj/2,
        support = 0.9 * inj."""
        if isinstance(m, FlatTorus):
            inj = lat.injectivity_radius(m.lattice)
        else:
            inj = np.pi * m.radius
        return cls(plateau=0.5 * inj, support=0.9 * inj)


def rho_hat(spec: MollifierSpec, t):
    """The cutoff itself.  Bridge: with f(u) = exp(-1/u) for u > 0 else 0,
    rho_hat = f(1-s) / (f(1-s) + f(s)) on the rescaled transition s."""
    ta = np.abs(np.asarray(t, dtype=float))
    scalar = ta.ndim == 0
    ta = np.atleast_1d(ta)
    out = np.zeros_like(ta)
    out[ta <= spec.plateau] = 1.0
    mid = (ta > spec.plateau) & (ta < spec.support)
    if np.any(mid):
        s = (ta[mid] - spec.plateau) / (spec.support - spec.plateau)
        with np.errstate(divide="ignore", over="ignore"):
            f_s = np.exp(-1.0 / s)
            f_1ms = np.exp(-1.0 / (1.0 - s))
        out[mid] = f_1ms / (f_1ms + f_s)
    return float(out[0]) if scalar else out


def _composite_gauss_legendre(T: float, n_panels: int):
    """Nodes and weights of the 16-point Gauss-Legendre rule on each of
    n_panels equal panels of [0, T]."""
    edges = np.linspace(0.0, T, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mids = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mids[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _sine_integrals(spec: MollifierSpec, nus: np.ndarray, n_panels: int) -> np.ndarray:
    """J(nu) = int_0^support rho_hat(u) sin(u nu)/u du on a fixed rule."""
    nodes, weights = _composite_gauss_legendre(spec.support, n_panels)
    base = rho_hat(spec, nodes) * weights / nodes
    out = np.empty(nus.size)
    chunk = max(1, int(4e6 // max(nodes.size, 1)))
    for lo in range(0, nus.size, chunk):
        out[lo:lo + chunk] = np.sin(np.outer(nus[lo:lo + chunk], nodes)) @ base
    return out


def _panel_eval(panel_coeffs: np.ndarray, nu0: float, nus: np.ndarray) -> np.ndarray:
    """The panel Chebyshev series at nus in [0, nu0): each nu's panel is
    floor(nu P / nu0), and one Clenshaw recurrence runs on all of them,
    gathering each step's coefficient per panel."""
    n_panels = panel_coeffs.shape[1]
    scaled = nus * (n_panels / nu0)
    panel = np.clip(np.floor(scaled), 0, n_panels - 1).astype(np.intp)
    x = 2.0 * (scaled - panel) - 1.0
    x2 = 2.0 * x
    b1 = np.zeros_like(x)
    b2 = np.zeros_like(x)
    for row in panel_coeffs[:0:-1]:
        b1, b2 = np.take(row, panel) + x2 * b1 - b2, b1
    return np.take(panel_coeffs[0], panel) + x * b1 - b2


@dataclass(frozen=True, eq=False)
class SineIntegralTable:
    """J on [0, nu0] and pi/2 beyond, with the residuals it was validated
    on.

    `coeffs` is the validated global Chebyshev series in 2 nu/nu0 - 1.
    Calls evaluate `panel_coeffs` instead: a (panel degree + 1, P) table of
    low-degree Chebyshev series on P equal panels of [0, nu0], derived from
    the global series and checked against it (`panel_error`) when built.
    """

    nu0: float
    coeffs: np.ndarray
    panels: int
    residual: float  # panel-doubling residual at the nodes and probes
    trailing: float  # largest coefficient in the last eighth of the series
    tail: float  # max |J - pi/2| on probes in [nu0, 1.5 nu0)
    panel_coeffs: np.ndarray
    panel_error: float  # max |panel form - global series| on edge probes

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, nus) -> np.ndarray:
        nus = np.asarray(nus, dtype=float)
        out = np.full(nus.shape, 0.5 * np.pi)
        inside = nus < self.nu0
        out[inside] = _panel_eval(self.panel_coeffs, self.nu0, nus[inside])
        return out


# pi in the long double precision pocketfft takes its twiddle angle in
_PI_LONG = np.longdouble("3.141592653589793238462643383279502884197")


def _dct2_twiddles(n: int) -> np.ndarray:
    """cos(pi i / (2n)) for i = 1..n-1 as pocketfft computes them: the real
    part of the product of a fine and a coarse table entry of the 4n-th
    roots of unity, each entry the sine or cosine of an angle of at most
    pi/4 in steps of an angle rounded from long double."""
    m = 4 * n
    angle = float(0.25 * _PI_LONG / m)
    shift = 1
    while 4 ** shift < (m + 2) // 2:
        shift += 1

    def roots(x):
        # (cos, sin) of 2 pi x / m for 0 <= x < n, folded at pi/4
        eighth = 8 * x
        near = eighth < m
        a = np.where(near, eighth, 2 * m - eighth) * angle
        cos, sin = np.cos(a), np.sin(a)
        return np.where(near, cos, sin), np.where(near, sin, cos)

    i = np.arange(1, n)
    fine_re, fine_im = roots(i & ((1 << shift) - 1))
    coarse_re, coarse_im = roots(i >> shift << shift)
    return fine_re * coarse_re - fine_im * coarse_im


def _dct2(values: np.ndarray) -> np.ndarray:
    """Unnormalised DCT-II along the last axis,
    y_k = 2 sum_j x_j cos(pi k (2j + 1) / (2n)),
    by pocketfft's algorithm, which scipy.fft.dct runs: fold neighbouring
    entries into a half-complex spectrum, take one inverse real FFT (numpy's
    is pocketfft's), and rotate the pairs (k, n - k) by the twiddles.  The
    order of operations is pocketfft's, so the values are scipy's."""
    n = values.shape[-1]
    c = np.array(values, dtype=float)
    c[..., 0] *= 2.0
    if n % 2 == 0:
        c[..., -1] *= 2.0
    odd, even = c[..., 1:n - 1:2].copy(), c[..., 2:n:2].copy()
    c[..., 1:n - 1:2] = even + odd
    c[..., 2:n:2] = even - odd
    # c is now r0, r1, i1, r2, i2, ... (and the real r_{n/2} last for even n)
    h = (n - 1) // 2
    spectrum = np.zeros(c.shape[:-1] + (n // 2 + 1,), dtype=complex)
    spectrum[..., 0] = c[..., 0]
    spectrum.real[..., 1:h + 1] = c[..., 1:2 * h:2]
    spectrum.imag[..., 1:h + 1] = c[..., 2:2 * h + 1:2]
    if n % 2 == 0:
        spectrum[..., -1] = c[..., -1]
    c = np.fft.irfft(spectrum, n, norm="forward")
    tw = _dct2_twiddles(n)
    k = np.arange(1, (n + 1) // 2)
    kc = n - k
    t1 = tw[k - 1] * c[..., kc] + tw[kc - 1] * c[..., k]
    t2 = tw[k - 1] * c[..., k] - tw[kc - 1] * c[..., kc]
    c[..., k] = 0.5 * (t1 + t2)
    c[..., kc] = 0.5 * (t1 - t2)
    if n % 2 == 0:
        c[..., n // 2] *= tw[n // 2 - 1]
    return c


def _panel_table(nu0: float, coeffs: np.ndarray):
    """Per-panel Chebyshev coefficients of the global series `coeffs`: P
    equal panels of [0, nu0] for P ~ degree / _DEGREE_PER_PANEL, each a
    series of degree _PANEL_DEGREE from the global series at its
    first-kind nodes.  Also returns the panel form's largest distance from
    the global series on probes at every panel edge, one ulp either side
    of it and at every panel's midpoint."""
    n_panels = int(np.ceil(coeffs.size / _DEGREE_PER_PANEL))
    n = _PANEL_DEGREE + 1
    width = nu0 / n_panels
    nodes = 0.5 * (1.0 + np.cos(np.pi * (np.arange(n) + 0.5) / n))
    edges = width * np.arange(n_panels)
    probes = np.concatenate([edges, np.nextafter(edges, nu0),
                             np.nextafter(edges[1:], 0.0), edges + 0.5 * width])
    nus = np.concatenate([(edges[:, None] + width * nodes).ravel(), probes])
    values = chebval(2.0 * nus / nu0 - 1.0, coeffs)
    panel_coeffs = _dct2(values[:-probes.size].reshape(n_panels, n)) / n
    panel_coeffs[:, 0] *= 0.5
    panel_coeffs = np.ascontiguousarray(panel_coeffs.T)
    panel_coeffs.flags.writeable = False  # every caller shares the cached table
    error = np.max(np.abs(_panel_eval(panel_coeffs, nu0, probes) - values[-probes.size:]))
    return panel_coeffs, float(error)


@functools.lru_cache(maxsize=16)
def sine_integral_table(spec: MollifierSpec) -> SineIntegralTable:
    """The spec's J table, built on first use and then shared.

    J is sampled at first-kind Chebyshev nodes by the composite rule at two
    panel counts; the global coefficients come from a DCT.  They are
    accepted when the panel-doubling residual, the trailing coefficients
    and the distance from pi/2 past nu0 are all below 1e-13.  Otherwise the
    degree doubles once (and nu0 with it if the tail failed); if the checks
    still fail, QuadratureError carries the last attempt's diagnostics.
    The accepted series is then cut into panels, which must match it to
    1e-13 as well, else QuadratureError names the panel count, the panel
    degree and the measured error.
    """
    width = spec.support - spec.plateau
    nu0 = _NU0_TRANSITION / width
    n = int(np.ceil(_DEGREE_PER_BANDWIDTH * nu0 * spec.support)) + 1
    for attempt in range(_TABLE_DOUBLINGS + 1):
        if attempt:
            if tail > _TABLE_TOL:
                nu0 *= 2.0
            n *= 2
        theta = np.pi * (np.arange(n) + 0.5) / n
        probes = nu0 * (1.0 + np.arange(16) / 32.0)
        nus = np.concatenate([nu0 * np.cos(0.5 * theta) ** 2, probes])
        panel = min(_PANEL_PERIODS * 2.0 * np.pi / float(nus.max()),
                    width / 6.0, spec.support / 4.0)
        n_panels = int(np.ceil(spec.support / panel))
        coarse = _sine_integrals(spec, nus, n_panels)
        fine = _sine_integrals(spec, nus, 2 * n_panels)
        coeffs = _dct2(fine[:n]) / n
        coeffs[0] *= 0.5
        coeffs.flags.writeable = False  # every caller shares the cached table
        residual = float(np.max(np.abs(fine - coarse)))
        trailing = float(np.max(np.abs(coeffs[-(n // 8):])))
        tail = float(np.max(np.abs(fine[n:] - 0.5 * np.pi)))
        if max(residual, trailing, tail) <= _TABLE_TOL:
            break
    else:
        raise QuadratureError(
            "sine-integral table did not validate: plateau=%g support=%g "
            "degree=%d nu0=%.6g panels=%d panel-doubling residual=%.3e "
            "trailing coefficients=%.3e |J - pi/2| past nu0=%.3e tolerance=%.0e"
            % (spec.plateau, spec.support, n - 1, nu0, 2 * n_panels, residual,
               trailing, tail, _TABLE_TOL))
    panel_coeffs, panel_error = _panel_table(nu0, coeffs)
    if panel_error > _TABLE_TOL:
        raise QuadratureError(
            "sine-integral panel table did not validate: plateau=%g support=%g "
            "panel count=%d panel degree=%d |panel - global series|=%.3e "
            "tolerance=%.0e"
            % (spec.plateau, spec.support, panel_coeffs.shape[1],
               panel_coeffs.shape[0] - 1, panel_error, _TABLE_TOL))
    return SineIntegralTable(
        nu0=nu0, coeffs=coeffs, panels=2 * n_panels, residual=residual,
        trailing=trailing, tail=tail, panel_coeffs=panel_coeffs,
        panel_error=panel_error)


def multiplier_batch(spec: MollifierSpec, lam: float, A: float, taus) -> np.ndarray:
    """m_{lambda,A} on an array of tau values from the spec's J table:
    m = (J((lambda+tau)/A) + sign(lambda-tau) J(|lambda-tau|/A))/pi."""
    if lam <= 0.0:
        raise DomainError("lambda must be positive")
    if not (0.0 < A <= 1.0):
        raise DomainError("A must lie in (0, 1]")
    taus = np.abs(np.asarray(taus, dtype=float))
    scalar = taus.ndim == 0
    taus = np.atleast_1d(taus)
    minus = lam - taus
    vals = sine_integral_table(spec)(np.concatenate([lam + taus, np.abs(minus)]) / A)
    n = taus.size
    m = (vals[:n] + np.sign(minus) * vals[n:]) / np.pi
    return float(m[0]) if scalar else m


def multiplier(spec: MollifierSpec, lam: float, A: float, tau: float) -> float:
    """The smoothed spectral multiplier m_{lambda,A}(tau)."""
    return float(multiplier_batch(spec, lam, A, tau))


def h_error(spec: MollifierSpec, lam: float, A: float, tau) -> float | np.ndarray:
    """h_{lambda,A}(tau) = 1_{[-lambda,lambda]}(tau) - m_{lambda,A}(tau)."""
    taus = np.abs(np.asarray(tau, dtype=float))
    indicator = (taus <= lam).astype(float)
    return indicator - multiplier_batch(spec, lam, A, tau)


def default_fit_grid(lam: float, A: float, s_max: float = 25.0, step: float = 0.25):
    """Coarse tau grid for constant fitting: tau = lambda +- A*s with s on a
    uniform grid (s is the envelope's natural variable)."""
    s = np.arange(0.0, s_max + 1e-9, step)
    taus = np.concatenate([lam + A * s, lam - A * s])
    return np.unique(taus[taus >= 0.0])


def fit_h_constant(spec: MollifierSpec, lam: float, A: float, N: int,
                   tau_grid=None) -> float:
    """Smallest C_N with |h| <= C_N (1 + ||tau|-lambda|/A)^{-N} on the grid."""
    if N < 1:
        raise DomainError("N must be >= 1")
    taus = default_fit_grid(lam, A) if tau_grid is None else np.asarray(tau_grid, float)
    h = h_error(spec, lam, A, taus)
    s = np.abs(np.abs(taus) - lam) / A
    return float(np.max(np.abs(h) * (1.0 + s) ** N))


def fit_h_decay(spec: MollifierSpec, lam: float, A: float) -> tuple[float, float]:
    """Fit |h(lambda + A s)| ~ C exp(-c sqrt(s)) on the outer tail.

    The exp-bridge cutoff is Gevrey-class, so its transform decays
    stretched-exponentially; this model is far sharper than any polynomial
    envelope and drives the truncation radii.
    """
    s = np.arange(4.0, 30.1, 0.5)
    h = np.abs(h_error(spec, lam, A, lam + A * s))
    keep = h > _TABLE_TOL  # stay above the J table's accuracy floor
    if np.count_nonzero(keep) < 4:
        return 1.0, 2.0  # conservative fallback: tail already below floor
    slope, _ = np.polyfit(np.sqrt(s[keep]), np.log(h[keep]), 1)
    c = max(-slope, 0.2)
    # upper-envelope constant: the model dominates every sampled tail point
    big_c = float(np.max(h[keep] * np.exp(c * np.sqrt(s[keep]))))
    return big_c, float(c)


def spectral_tail_radius(spec: MollifierSpec, lam: float, A: float,
                         decay: tuple[float, float] | None = None) -> float:
    """Radius beyond which the fitted h-decay (2x safety on the constant)
    guarantees |m| < _TAIL_THRESHOLD, so the spectral sum may stop there."""
    if decay is None:
        decay = fit_h_decay(spec, lam, A)
    big_c, c = decay
    s_star = (np.log(2.0 * max(big_c, _TAIL_THRESHOLD) / _TAIL_THRESHOLD) / c) ** 2
    return lam + A * max(s_star, 10.0)


class SmoothedProjector:
    """Smoothed projector on a flat torus with both evaluation routes.

    Construction is the only stateful step (the box of multiplier weights,
    truncation radii, radial rule); instances are immutable afterwards and
    evaluations are pure.  Both routes take a pair of points or (P, dim)
    point arrays (a single point pairs with every row of the other) and
    return a float or a (P,) array.
    """

    def __init__(self, m: FlatTorus, spec: MollifierSpec, lam: float, A: float):
        if not isinstance(m, FlatTorus):
            raise DomainError("smoothed projectors are defined on flat tori")
        self.manifold = m
        self.spec = spec
        self.lam = float(lam)
        self.A = float(A)
        self.h_decay = fit_h_decay(spec, lam, A)
        self.tail_radius = spectral_tail_radius(spec, lam, A, decay=self.h_decay)
        self.image_radius = spec.support / A

        # spectral side: W[c] = m(|G c|) on the coefficient box of the tail
        # ball, 0 outside the ball, with one multiplier evaluation per
        # distinct dual norm.  The box is checked against the cap before
        # anything is enumerated or allocated.
        half = lat.coefficient_box(m.lattice.dual_basis, self.tail_radius)
        size = lat.box_size(half)
        lat.check_cap(size, "the weight box of the spectral tail ball (radius %.6g, lambda=%g, "
                      "A=%g) holds %.12g coefficients" % (self.tail_radius, lam, A, size))
        self._half = half.astype(np.int64)
        shape = tuple(2 * self._half + 1)
        coeffs, vectors, norms = lat.dual_vectors(m.lattice, self.tail_radius)
        del vectors  # the box needs only the coefficients and norms
        # the norms come sorted, so each distinct norm is a run of equal values
        starts = np.flatnonzero(np.concatenate([[True], norms[1:] != norms[:-1]]))
        weights = multiplier_batch(spec, lam, A, norms[starts])
        del norms
        coeffs += self._half
        self._box = np.zeros(shape)
        self._box[tuple(coeffs.T)] = np.repeat(weights, np.diff(np.append(starts, coeffs.shape[0])))

        # images side: panels hold _PANEL_PERIODS periods of 2 support/A,
        # the radial integrand's exponential type (see the module docstring)
        panel = _PANEL_PERIODS * 2.0 * np.pi / (2.0 * self.image_radius)
        n_panels = int(np.ceil(self.tail_radius / panel))
        self._r_nodes, self._r_weights = _composite_gauss_legendre(self.tail_radius, n_panels)
        self._m_radial = multiplier_batch(spec, lam, A, self._r_nodes)

    def spectral(self, x, y):
        """Multiplier-weighted mode sum (1/covol) sum m(|k|) cos<k, y-x>.

        With k = G c and theta = G^T (y - x), <k, y - x> = <c, theta>, so the
        sum is Re sum_c W[c] prod_j exp(i c_j theta_j).  The weight box is
        contracted one axis at a time, last axis first, with per-axis phase
        tables for every pair at once: one matrix product on the last axis,
        then one weighted sum per remaining axis.
        """
        xs, ys, many = point_pairs(x, y)
        thetas = (ys - xs) @ self.manifold.lattice.dual_basis
        tables = [np.exp(1j * np.multiply.outer(np.arange(-h, h + 1), theta))
                  for h, theta in zip(self._half, thetas.T)]
        last = tables[-1]
        flat = self._box.reshape(-1, last.shape[0]) @ np.hstack([last.real, last.imag])
        p = thetas.shape[0]
        acc = (flat[:, :p] + 1j * flat[:, p:]).reshape(self._box.shape[:-1] + (p,))
        for table in reversed(tables[:-1]):
            acc = np.einsum("...jp,jp->...p", acc, table)
        values = acc.real / self.manifold.lattice.covolume
        return values if many else float(values[0])

    def images(self, x, y):
        """Deck-image sum of radial integrals
        (2 pi)^{-n} int m(r) r^{n-1} S_n(r |w|) dr, images sorted by norm
        and added one at a time.  One period-lattice enumeration serves
        every pair, and one radial kernel evaluation every image."""
        xs, ys, many = point_pairs(x, y)
        n = self.manifold.dim
        images = lat.deck_images(self.manifold.lattice, xs, ys,
                                 self.image_radius * (1.0 + 1e-12))
        counts = [w.shape[0] for w in images]
        lengths = np.linalg.norm(np.concatenate(images), axis=1) if images else np.empty(0)
        base = self._m_radial * self._r_weights * self._r_nodes ** (n - 1)
        terms = np.empty(lengths.size)
        chunk = max(1, int(4e6 // self._r_nodes.size))
        for lo in range(0, lengths.size, chunk):
            radii = np.multiply.outer(lengths[lo:lo + chunk], self._r_nodes)
            # a row-wise sum adds each row alike at any chunk size
            terms[lo:lo + chunk] = np.sum(sphere_fourier(n, radii) * base, axis=1)
        ends = np.cumsum(counts, dtype=int)
        values = np.array([sum(terms[end - count:end].tolist(), 0.0)
                           for count, end in zip(counts, ends)]) / (2.0 * np.pi) ** n
        return values if many else float(values[0])
