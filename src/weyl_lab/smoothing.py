"""Fourier-mollified projector and its method-of-images evaluation on flat
tori.

The time-domain wave kernel is never materialized: integrating the cutoff
rho_hat(At) sin(t lambda)/t against a fixed frequency tau gives exactly the
multiplier

    m_{lambda,A}(tau) = (1/pi) int rho_hat(At) sin(t lambda)/t cos(t tau) dt
                      = (J((lambda+tau)/A) + sign(lambda-tau) J(|lambda-tau|/A))/pi

with J(nu) = int_0^support rho_hat(u) sin(u nu)/u du (substitute u = At in
the product-to-sum split).  J depends on neither lambda nor A.  Every
cutoff has the same shape, plateau 5/9 of its support, so substituting
u = support v gives J(nu) = J_ref(support nu), with J_ref the J of the
reference cutoff of support 1.  J_ref is a checked-in constant
(`_jref_table`): on [0, nu0], nu0 = 945, 77 equal panels, each a degree-24
Chebyshev series, cut from a degree-615 global series; past nu0 J_ref is
pi/2 to about 1e-14.  The tests rebuild it by quadrature, DCT and global
series and hold it to 1e-13.  The process loads it on first use and cuts
each panel into 20 equal sub-panels, each a degree-8 polynomial in the
offset from its centre (the panel series' Chebyshev truncation, derived
with + - * / only, so J has the same bits on every host).  So a J value
costs one gather of 9 coefficients and 8 Horner steps.

The spectral side is a multiplier-weighted mode sum and each deck image
contributes the radial integral (2pi)^{-n} int m(r) r^{n-1} S_n(r |w|) dr.
Their equality is Poisson summation (exact on flat tori by finite
propagation speed), which the tests exercise as an oracle.  The mode sum is
separable: a dual point is k = G c with c an integer vector, so
<k, y - x> = <c, theta> with theta = G^T (y - x).  |G c| and |G (-c)| have
the same bits, so the weights W[c] = m(|G c|) are kept on the canonical
half of the tail ball, the c that are lexicographically >= 0, in a half box
c_1 >= 0 (zero elsewhere), and the sum is twice the real part of the half
sum less the origin's weight.  The box is contracted one axis at a time
with per-axis tables exp(i c_j theta_j) for every pair at once, which takes
O(n M P) trig evaluations for box half-width M and P pairs instead of one
cosine per mode and pair.  The images side enumerates the period lattice
once per call and evaluates the radial kernel of every image of every pair
in one pass.

The radial rule is sized by band limit: m(r) = int g(t) e^{itr} dt is the
transform of g(t) = rho_hat(At) sin(t lambda)/(pi t), supported in
|t| <= T = support/A, so m has exponential type T; S_n(r |w|) has type
|w| <= T and r^{n-1} type 0, so the integrand f has type at most 2T and
|f^(32)| <= (2T)^32 sup|f|.  The 16-node Gauss-Legendre remainder on a
panel of half-width h is then at most C_16 (2T h)^32 times h sup|f|, with
C_16 = 2^33 (16!)^4 / (33 (32!)^3), so panels of width omega / T, where
C_16 omega^32 = 2^-53 (omega = 7.834), keep it at rounding level.  The
width does not depend on lambda.

Images with |w| >= support/A vanish identically: the integrand's time
support [|w|, inf) misses the cutoff's. Truncation radii are computed from
fitted h-decay constants with a 2x safety factor.

Memory stays bounded at any size.  J values and the images side's radial
kernel are evaluated in blocks of about _BLOCK_VALUES values.  The weight
box is filled from dual-lattice shells at radii R (k/K)^{1/n}, k = 1..K, K
chosen so that a shell of the whole ball holds about _SHELL_ROWS rows (ball
volume over covolume), so its canonical half about _SHELL_ROWS / 2.
Besides the box only one half shell's rows are held at a time.  A row
within rounding of a shell edge may come in twice, with the same weight
both times, so the box has the bits of a one-shell fill.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import lattice as lat
from .errors import DomainError
from .manifolds import FlatTorus, ModelManifold, point_pairs
from .specfun import sphere_fourier

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# the n-node Gauss-Legendre remainder on [-1, 1] is C_n f^(2n)(xi) with
# C_n = 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3); for f of exponential type w,
# |f^(2n)| <= w^(2n) sup|f|, so panels of half-width h keep the remainder
# below 2^-53 of sup|f| per unit length wherever w h <= (2^-53 / C_16)^(1/32)
_GL_REMAINDER = 2**33 * math.factorial(16) ** 4 / (33 * math.factorial(32) ** 3)
_GL_REACH = (2.0**-53 / _GL_REMAINDER) ** (1.0 / 32.0)
# the cutoff's plateau over its support: for_manifold's inj/2 over 0.9 inj
_PLATEAU_RATIO = 5.0 / 9.0
# calls evaluate J by Horner on each panel's 20 equal sub-panels, each a
# degree-8 polynomial: 4.3e-15 from the panel form on square 2pi and hex
# (12 sub-panels: 3.7e-13; 16: 2.9e-14; degree 7 on 25: 5.2e-14; degree 9
# on 16: 8.9e-16 but 7% longer a call at 1 value and 11% at 8,080)
_SUB_PANELS = 20
_SUB_DEGREE = 8
# the spectral sum stops where the fitted h-decay puts |m| below this
_TAIL_THRESHOLD = 1e-12
# the values of one block of the J evaluation or of the images side
_BLOCK_VALUES = 2**18
# the rows of one dual-lattice shell of the weight box
_SHELL_ROWS = 2**20


@dataclass(frozen=True)
class MollifierSpec:
    """Even C^inf cutoff rho_hat: identically 1 on [-plateau, plateau],
    identically 0 outside (-support, support), exp-bridge in between, with
    plateau = 5/9 support."""

    support: float

    def __post_init__(self):
        if not (0.0 < self.support < math.inf):
            raise DomainError("need a finite support > 0")

    @property
    def plateau(self) -> float:
        return _PLATEAU_RATIO * self.support

    @classmethod
    def for_manifold(cls, m: ModelManifold) -> "MollifierSpec":
        """The cutoff tied to the injectivity radius: support = 0.9 * inj,
        so plateau = inj/2."""
        return cls(support=0.9 * m.injectivity_radius)


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


def _horner_eval(sub_coeffs: np.ndarray, nu0: float, nus: np.ndarray) -> np.ndarray:
    """The sub-panel polynomials at nus in [0, nu0): each nu's sub-panel is
    floor(nu S / nu0) for S sub-panels, and its polynomial, highest power
    first, is summed by Horner in the offset u = nu S / nu0 - sub-panel -
    1/2 from the sub-panel's centre.  The coefficients are gathered in one
    take per column block of about _BLOCK_VALUES values and the steps
    acc = acc u + c run in place on the gathered rows, so every value has
    the same bits at any block size."""
    terms, n_sub = sub_coeffs.shape
    scaled = nus * (n_sub / nu0)
    # truncation is floor on nu >= 0 (-0.0 lands in sub-panel 0)
    sub = np.minimum(scaled, n_sub - 1).astype(np.intp)
    u = scaled - sub
    u -= 0.5
    out = np.empty_like(u)
    block = max(1, _BLOCK_VALUES // terms)
    for lo in range(0, u.size, block):
        rows = np.take(sub_coeffs, sub[lo:lo + block], axis=1)
        us = u[lo:lo + block]
        acc = rows[0]
        for row in rows[1:]:
            acc *= us
            acc += row
        out[lo:lo + block] = acc
    return out


@dataclass(frozen=True, eq=False)
class SineIntegralTable:
    """J_ref on [0, nu0] and pi/2 beyond.  A negative nu raises DomainError.

    Calls evaluate `sub_coeffs`: a (sub-panel degree + 1, P * _SUB_PANELS)
    table of polynomials, highest power first, on the checked-in panels
    cut into equal sub-panels.
    """

    nu0: float
    sub_coeffs: np.ndarray

    def __call__(self, nus) -> np.ndarray:
        nus = np.asarray(nus, dtype=float)
        negative = nus < 0.0
        if negative.any():
            raise DomainError("the sine-integral table needs nu >= 0, got nu=%r"
                              % float(nus[negative][0]))
        inside = nus < self.nu0  # false for nan and inf: pi/2, never gathered
        if inside.all():
            return _horner_eval(self.sub_coeffs, self.nu0, nus.ravel()).reshape(nus.shape)
        out = np.full(nus.shape, 0.5 * np.pi)
        out[inside] = _horner_eval(self.sub_coeffs, self.nu0, nus[inside])
        return out


def _shifted_chebyshev(terms: int, centres: np.ndarray, scale: float) -> np.ndarray:
    """basis[n, k, j], the coefficient of t^k in T_n(centres[j] + scale t)
    for n, k < terms, from T_{n+1}(y) = 2 y T_n(y) - T_{n-1}(y) run on
    polynomials in t."""
    basis = np.zeros((terms, terms, centres.size))
    basis[0, 0] = 1.0
    basis[1, 0] = centres
    basis[1, 1] = scale
    for n in range(2, terms):
        np.multiply(2.0 * centres, basis[n - 1], out=basis[n])
        basis[n, 1:] += (2.0 * scale) * basis[n - 1, :-1]
        basis[n] -= basis[n - 2]
    return basis


def _sub_panel_polynomials(panel_coeffs: np.ndarray) -> np.ndarray:
    """Each panel of `panel_coeffs` cut into _SUB_PANELS equal sub-panels,
    each a polynomial of degree _SUB_DEGREE, highest power first, in the
    offset u in [-1/2, 1/2] from the sub-panel's centre in units of its
    width: the panel series' Chebyshev truncation there, in t = 2u.

    With x_j the centre of sub-panel j in the panel variable, the panel
    series is sum_n c_n T_n(x_j + 2u / _SUB_PANELS); its powers of u come
    from `_shifted_chebyshev`.  Each power u^k above the degree is then
    economized, top down: T_k(2u) is u^k times its leading coefficient
    2^(2k-1) plus powers of degree k - 2 and below, so rewriting u^k by
    those powers drops the series' T_k(t) term and nothing else.  The c_n
    are summed in a fixed order with elementwise products only, no BLAS,
    so a given panel table gives the same bits on every host."""
    terms, n_panels = panel_coeffs.shape
    centres = (2.0 * np.arange(_SUB_PANELS) + 1.0) / _SUB_PANELS - 1.0
    basis = _shifted_chebyshev(terms, centres, 2.0 / _SUB_PANELS)
    doubled = _shifted_chebyshev(terms, np.zeros(1), 2.0)[:, :, 0]  # T_k(2u)
    for k in range(terms - 1, _SUB_DEGREE, -1):
        lower = doubled[k, k - 2::-2] / doubled[k, k]
        basis[:, k - 2::-2] -= basis[:, k:k + 1] * lower[:, None]
    sub = np.zeros((_SUB_DEGREE + 1, n_panels, _SUB_PANELS))
    for c, b in zip(panel_coeffs, basis[:, _SUB_DEGREE::-1]):
        sub += b[:, None, :] * c[:, None]
    sub_coeffs = sub.reshape(_SUB_DEGREE + 1, -1)
    sub_coeffs.flags.writeable = False  # every caller shares the cached table
    return sub_coeffs


@functools.cache
def sine_integral_table() -> SineIntegralTable:
    """The J_ref table of the reference cutoff (support 1), shared by every
    spec: J(nu) = J_ref(support nu).

    Its panel table is the constant in `_jref_table`, loaded at first use
    (never at import); the sub-panels that calls evaluate are derived from
    it with + - * / only, so J has the same bits on every host.  The tests
    rebuild the panel table by quadrature and hold it, and the sub-panels,
    to 1e-13 of the global series."""
    from . import _jref_table

    sub_coeffs = _sub_panel_polynomials(np.array(_jref_table.PANEL_COEFFS))
    return SineIntegralTable(nu0=_jref_table.NU0, sub_coeffs=sub_coeffs)


def multiplier_batch(spec: MollifierSpec, lam: float, A: float, taus) -> np.ndarray:
    """m_{lambda,A} on an array of tau values from the J_ref table:
    m = (J((lambda+tau)/A) + sign(lambda-tau) J(|lambda-tau|/A))/pi with
    J(nu) = J_ref(support nu)."""
    if lam <= 0.0:
        raise DomainError("lambda must be positive")
    if not (0.0 < A <= 1.0):
        raise DomainError("A must lie in (0, 1]")
    taus = np.abs(np.asarray(taus, dtype=float))
    scalar = taus.ndim == 0
    taus = np.atleast_1d(taus)
    minus = lam - taus
    nus = np.concatenate([lam + taus, np.abs(minus)]) * (spec.support / A)
    vals = sine_integral_table()(nus)
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
    keep = h > 1e-13  # stay above the J table's accuracy floor
    if np.count_nonzero(keep) < 4:
        return 1.0, 2.0  # conservative fallback: tail already below floor
    slope, _ = np.polyfit(np.sqrt(s[keep]), np.log(h[keep]), 1)
    c = max(-slope, 0.2)
    # upper-envelope constant: the model dominates every sampled tail point
    big_c = float(np.max(h[keep] * np.exp(c * np.sqrt(s[keep]))))
    return big_c, float(c)


def spectral_tail_radius(spec: MollifierSpec, lam: float, A: float) -> float:
    """Radius beyond which the fitted h-decay (2x safety on the constant)
    guarantees |m| < _TAIL_THRESHOLD, so the spectral sum may stop there."""
    big_c, c = fit_h_decay(spec, lam, A)
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
        self.tail_radius = spectral_tail_radius(spec, lam, A)
        self.image_radius = spec.support / A
        # images side: panels of half-width _GL_REACH / (2 T), T = support/A,
        # for the radial integrand of exponential type 2T (see the module
        # docstring); its node count, which grows as 1/A, is checked before
        # anything is allocated
        panel = _GL_REACH / self.image_radius
        n_panels = np.ceil(self.tail_radius / panel)
        nodes = _GL_NODES.size * n_panels
        lat.check_cap(nodes, "the radial rule of the images side (A=%g, image radius %.6g) "
                      "holds %.12g nodes" % (A, self.image_radius, nodes))

        # spectral side: W[c] = m(|G c|) on the canonical half of the tail
        # ball, 0 elsewhere, with one multiplier evaluation per distinct
        # dual norm of each shell, in the half box 0 <= c_1 <= M_1,
        # |c_j| <= M_j.  The box is checked against the cap before anything
        # is enumerated or allocated.
        half = lat.coefficient_box(m.lattice.dual_basis, self.tail_radius)
        with np.errstate(over="ignore"):
            size = (half[0] + 1.0) * lat.box_size(half[1:])
        lat.check_cap(size, "the weight box of the spectral tail ball's half (radius %.6g, "
                      "lambda=%g, A=%g) holds %.12g coefficients"
                      % (self.tail_radius, lam, A, size))
        self._half = half.astype(np.int64)
        # the box index of c is c + offset
        self._offset = np.concatenate([[0], self._half[1:]])
        self._box = np.zeros(tuple(self._half + self._offset + 1))
        # about _SHELL_ROWS rows a shell of the whole ball (so half of them
        # enumerated), the ball's rows predicted as its volume over the dual
        # covolume
        n = m.dim
        ball = np.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * self.tail_radius ** n
        shells = math.ceil(ball / abs(np.linalg.det(m.lattice.dual_basis)) / _SHELL_ROWS)
        radii = self.tail_radius * (np.arange(1, shells + 1) / shells) ** (1.0 / n)
        radii[-1] = self.tail_radius
        inner = -1.0  # the first shell is the ball of radius radii[0]
        for outer in radii.tolist():
            coeffs, vectors, norms = lat.dual_vectors(m.lattice, outer, inner)
            del vectors  # the box needs only the coefficients and norms
            distinct, inverse = np.unique(norms, return_inverse=True)
            del norms
            weights = multiplier_batch(spec, lam, A, distinct)[inverse]
            del inverse
            coeffs += self._offset
            self._box[tuple(coeffs.T)] = weights
            del coeffs, weights
            inner = outer

        self._r_nodes, self._r_weights = _composite_gauss_legendre(self.tail_radius, int(n_panels))
        self._m_radial = multiplier_batch(spec, lam, A, self._r_nodes)

    def spectral(self, x, y):
        """Multiplier-weighted mode sum (1/covol) sum m(|k|) cos<k, y-x>.

        With k = G c and theta = G^T (y - x), <k, y - x> = <c, theta>, and
        W[c] = W[-c], so the sum is 2 Re S - W[0] with S the half box's
        sum_c W[c] prod_j exp(i c_j theta_j).  The half box is contracted
        one axis at a time, last axis first, with per-axis phase tables for
        every pair at once: one matrix product on the last axis, then one
        weighted sum per remaining axis.
        """
        xs, ys, many = point_pairs(x, y)
        thetas = (ys - xs) @ self.manifold.lattice.dual_basis
        tables = [np.exp(1j * np.multiply.outer(np.arange(-low, h + 1), theta))
                  for low, h, theta in zip(self._offset, self._half, thetas.T)]
        last = tables[-1]
        flat = self._box.reshape(-1, last.shape[0]) @ np.hstack([last.real, last.imag])
        p = thetas.shape[0]
        acc = (flat[:, :p] + 1j * flat[:, p:]).reshape(self._box.shape[:-1] + (p,))
        for table in reversed(tables[:-1]):
            acc = np.einsum("...jp,jp->...p", acc, table)
        origin = self._box[tuple(self._offset)]
        values = (2.0 * acc.real - origin) / self.manifold.lattice.covolume
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
        chunk = max(1, _BLOCK_VALUES // self._r_nodes.size)
        for lo in range(0, lengths.size, chunk):
            radii = np.multiply.outer(lengths[lo:lo + chunk], self._r_nodes)
            # a row-wise sum adds each row alike at any chunk size
            terms[lo:lo + chunk] = np.sum(sphere_fourier(n, radii) * base, axis=1)
        ends = np.cumsum(counts, dtype=int)
        values = np.array([sum(terms[end - count:end].tolist(), 0.0)
                           for count, end in zip(counts, ends)]) / (2.0 * np.pi) ** n
        return values if many else float(values[0])
