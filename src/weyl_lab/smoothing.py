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
equal panels, each a degree-24 Chebyshev series checked against the global
one at every panel edge.  Each panel is cut again into 20 equal
sub-panels, each a degree-8 polynomial in the offset from its centre (the
panel series' Chebyshev truncation, derived with + - * / only) and checked
against the global series at every panel edge and every sub-panel edge,
all when the table is built.  So a J value costs one gather of 9
coefficients and 8 Horner steps.

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
|w| <= T and r^{n-1} type 0, so the integrand f has type at most 2T and
|f^(32)| <= (2T)^32 sup|f|.  The 16-node Gauss-Legendre remainder on a
panel of half-width h is then at most C_16 (2T h)^32 times h sup|f|, with
C_16 = 2^33 (16!)^4 / (33 (32!)^3), so panels of width omega / T, where
C_16 omega^32 = 2^-53 (omega = 7.834), keep it at rounding level.  The
width does not depend on lambda; a panel holds 2.03 times the 16/13
periods of the J-table build's panels.

Images with |w| >= support/A vanish identically: the integrand's time
support [|w|, inf) misses the cutoff's. Truncation radii are computed from
fitted h-decay constants with a 2x safety factor.

Memory stays bounded at any size.  The J-table quadrature and the images
side's radial kernel are evaluated in row blocks of about _BLOCK_VALUES
values; the J-table rows are rounded down to a power of two, which keeps
BLAS's matrix-vector product on the bits of the unblocked one (blocks of
6 or 22 rows moved J by 5e-15).  The weight box is filled from dual-lattice
shells at radii R (k/K)^{1/n}, k = 1..K, K chosen so that a shell of the
whole ball holds about _SHELL_ROWS rows (ball volume over covolume).  A
shell enumerates only its canonical half, the c that are lexicographically
>= 0, so about _SHELL_ROWS / 2 rows, and each weight goes to W[c] and
W[-c]: |G c| and |G (-c)| have the same bits, so the box has the bits of
the whole ball's fill.  Besides the box only one half shell's rows are
held at a time.  A row within rounding of a shell edge may come in twice,
with the same weight both times, so the box has the bits of a one-shell
fill.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from . import lattice as lat
from .errors import DomainError, QuadratureError
from .manifolds import FlatTorus, ModelManifold, point_pairs
from .specfun import sphere_fourier

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# the J-table build's 16-node panels hold 16/13 periods (~13 nodes a period)
_PANEL_PERIODS = 16.0 / 13.0
# the n-node Gauss-Legendre remainder on [-1, 1] is C_n f^(2n)(xi) with
# C_n = 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3); for f of exponential type w,
# |f^(2n)| <= w^(2n) sup|f|, so panels of half-width h keep the remainder
# below 2^-53 of sup|f| per unit length wherever w h <= (2^-53 / C_16)^(1/32)
_GL_REMAINDER = 2**33 * math.factorial(16) ** 4 / (33 * math.factorial(32) ** 3)
_GL_REACH = (2.0**-53 / _GL_REMAINDER) ** (1.0 / 32.0)
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
# calls evaluate J by Horner on each panel's 20 equal sub-panels, each a
# degree-8 polynomial: 4.3e-15 from the panel form on square 2pi and hex
# (12 sub-panels: 3.7e-13; 16: 2.9e-14; degree 7 on 25: 5.2e-14; degree 9
# on 16: 8.9e-16 but 7% longer a call at 1 value and 11% at 8,080)
_SUB_PANELS = 20
_SUB_DEGREE = 8
# the spectral sum stops where the fitted h-decay puts |m| below this
_TAIL_THRESHOLD = 1e-12
# the values of one block of the J-table quadrature or of the images side
_BLOCK_VALUES = 2**18
# the rows of one dual-lattice shell of the weight box
_SHELL_ROWS = 2**20


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
        inj = m.injectivity_radius
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
    # a power-of-two row count keeps the products on the unblocked bits
    rows = 1 << max((_BLOCK_VALUES // nodes.size).bit_length() - 1, 0)
    for lo in range(0, nus.size, rows):
        out[lo:lo + rows] = np.sin(np.outer(nus[lo:lo + rows], nodes)) @ base
    return out


def _panel_eval(panel_coeffs: np.ndarray, nu0: float, nus: np.ndarray) -> np.ndarray:
    """The panel Chebyshev series at nus in [0, nu0): each nu's panel is
    floor(nu P / nu0), and one Clenshaw recurrence runs on all of them.

    The coefficients of every step are gathered per panel in one take, in
    column blocks of about _BLOCK_VALUES values, and the recurrence
    b_k = c_k + 2x b_{k+1} - b_{k+2} then runs in place on the gathered
    rows: each row becomes its b_k as (2x b_{k+1} + c_k) - b_{k+2}, which
    has the bits of c_k + 2x b_{k+1} - b_{k+2} since IEEE addition is
    commutative, so every value is that of the per-step gather."""
    terms, n_panels = panel_coeffs.shape
    scaled = nus * (n_panels / nu0)
    panel = np.clip(np.floor(scaled), 0, n_panels - 1).astype(np.intp)
    x = 2.0 * (scaled - panel) - 1.0
    out = np.empty_like(x)
    block = max(1, _BLOCK_VALUES // terms)
    for lo in range(0, x.size, block):
        rows = np.take(panel_coeffs, panel[lo:lo + block], axis=1)
        xs = x[lo:lo + block]
        x2 = 2.0 * xs
        b1 = np.zeros_like(xs)
        b2 = np.zeros_like(xs)
        step = np.empty_like(xs)
        for row in rows[:0:-1]:
            row += np.multiply(x2, b1, out=step)
            row -= b2
            b1, b2 = row, b1
        rows[0] += np.multiply(xs, b1, out=step)
        np.subtract(rows[0], b2, out=out[lo:lo + block])
    return out


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
    # truncation is floor on the clamped values, all >= 0
    sub = np.minimum(np.maximum(scaled, 0.0), n_sub - 1).astype(np.intp)
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
    """J on [0, nu0] and pi/2 beyond, with the residuals it was validated
    on.

    `coeffs` is the validated global Chebyshev series in 2 nu/nu0 - 1.
    `panel_coeffs` is a (panel degree + 1, P) table of low-degree Chebyshev
    series on P equal panels of [0, nu0], derived from the global series
    and checked against it (`panel_error`) when built.  Calls evaluate
    `sub_coeffs`: a (sub-panel degree + 1, P * _SUB_PANELS) table of
    polynomials, highest power first, on the panels cut into equal
    sub-panels, derived from `panel_coeffs` and checked against the global
    series (`sub_error`) when built.
    """

    nu0: float
    coeffs: np.ndarray
    panels: int
    residual: float  # panel-doubling residual at the nodes and probes
    trailing: float  # largest coefficient in the last eighth of the series
    tail: float  # max |J - pi/2| on probes in [nu0, 1.5 nu0)
    panel_coeffs: np.ndarray
    panel_error: float  # max |panel form - global series| on edge probes
    sub_coeffs: np.ndarray
    sub_error: float  # max |sub-panel form - global series| on edge probes

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __call__(self, nus) -> np.ndarray:
        nus = np.asarray(nus, dtype=float)
        inside = nus < self.nu0  # false for nan and inf: pi/2, never gathered
        if inside.all():
            return _horner_eval(self.sub_coeffs, self.nu0, nus.ravel()).reshape(nus.shape)
        out = np.full(nus.shape, 0.5 * np.pi)
        out[inside] = _horner_eval(self.sub_coeffs, self.nu0, nus[inside])
        return out


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients along the last axis of the series through
    `values` at the first-kind nodes cos(pi (j + 1/2) / n): the DCT-II
    2 sum_j x_j cos(pi k (2j + 1) / (2n)) over n, with c_0 halved.  Each
    cosine is read at k (2j + 1) mod 4n, reduced in integers, from the
    quarter wave cos(pi r / (2n)), r = 0..n, by exact symmetry.  Unreduced
    angles moved J by 2.8e-13.  Reduced angles used directly are each short
    by np.pi's relative error: the series then ends 7.5e-14 off pi/2, not 1e-14."""
    n = values.shape[-1]
    quarter = np.cos(np.pi * np.arange(n + 1) / (2 * n))
    cycle = np.concatenate([quarter, -quarter[-2::-1], -quarter[1:], quarter[-2:0:-1]])
    k = np.arange(n)
    coeffs = 2.0 * (values @ cycle[np.outer(k, 2 * k + 1) % (4 * n)].T) / n
    coeffs[..., 0] *= 0.5
    return coeffs


def _panel_probes(nu0: float, count: int) -> np.ndarray:
    """Every edge of `count` equal panels of [0, nu0), one ulp either side
    of it (nu0 excluded), then every panel's midpoint."""
    width = nu0 / count
    edges = width * np.arange(count)
    return np.concatenate([edges, np.nextafter(edges, nu0),
                           np.nextafter(edges[1:], 0.0), edges + 0.5 * width])


def _panel_table(nu0: float, coeffs: np.ndarray):
    """Per-panel Chebyshev coefficients of the global series `coeffs`: P
    equal panels of [0, nu0] for P ~ degree / _DEGREE_PER_PANEL, each a
    series of degree _PANEL_DEGREE from the global series at its
    first-kind nodes.  Also returns the panel form's largest distance from
    the global series on `_panel_probes`."""
    n_panels = int(np.ceil(coeffs.size / _DEGREE_PER_PANEL))
    n = _PANEL_DEGREE + 1
    width = nu0 / n_panels
    nodes = 0.5 * (1.0 + np.cos(np.pi * (np.arange(n) + 0.5) / n))
    edges = width * np.arange(n_panels)
    probes = _panel_probes(nu0, n_panels)
    nus = np.concatenate([(edges[:, None] + width * nodes).ravel(), probes])
    values = chebval(2.0 * nus / nu0 - 1.0, coeffs)
    panel_coeffs = _chebyshev_coefficients(values[:-probes.size].reshape(n_panels, n))
    panel_coeffs = np.ascontiguousarray(panel_coeffs.T)
    panel_coeffs.flags.writeable = False  # every caller shares the cached table
    error = np.max(np.abs(_panel_eval(panel_coeffs, nu0, probes) - values[-probes.size:]))
    return panel_coeffs, float(error)


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


def _series_eval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Chebyshev series `coeffs` at x by Clenshaw's recurrence in three
    reused buffers.  chebval allocates at every step and took ~1.5 times as
    long on the ~1,850 probes of the sub-panel check, whose cost every
    process pays once."""
    x2 = 2.0 * x
    b1, b2, step = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    for c in coeffs[:0:-1]:
        np.multiply(x2, b1, out=step)
        step -= b2
        step += c
        b1, b2, step = step, b1, b2
    return coeffs[0] + x * b1 - b2


def _sub_panel_table(nu0: float, coeffs: np.ndarray, panel_coeffs: np.ndarray):
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
    so a given panel table gives the same bits on every host.

    Also returns the largest distance from the global series on the panel
    table's probes and one ulp either side of every sub-panel edge e (nu0
    from below and nu0 itself).  The series is summed at e alone: J moves
    by at most 2^-52 over one ulp of e, since J'(nu) = int rho_hat(u)
    cos(u nu) du = -int rho_hat'(u) sin(u nu) du / nu and rho_hat falls
    monotonically from 1 to 0, so |J'(nu)| <= 1/nu.  That halves the probes
    of the series, whose sum is most of the check's cost."""
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
    count = sub_coeffs.shape[1]
    probes = _panel_probes(nu0, n_panels)
    edges = np.append(nu0 / count * np.arange(1, count), nu0)
    want = _series_eval(coeffs, 2.0 * np.concatenate([probes, edges]) / nu0 - 1.0)
    want = np.concatenate([want, want[probes.size:]])
    nus = np.concatenate([probes, np.nextafter(edges, 0.0), np.nextafter(edges, nu0)])
    error = np.max(np.abs(_horner_eval(sub_coeffs, nu0, nus) - want))
    return sub_coeffs, float(error)


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
    degree and the measured error.  The panels are cut into the sub-panels
    that calls evaluate, which are held to the same 1e-13 against the
    global series, else QuadratureError names the sub-panel count, degree
    and error.
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
        coeffs = _chebyshev_coefficients(fine[:n])
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
    sub_coeffs, sub_error = _sub_panel_table(nu0, coeffs, panel_coeffs)
    if sub_error > _TABLE_TOL:
        raise QuadratureError(
            "sine-integral sub-panel table did not validate: plateau=%g support=%g "
            "sub-panel count=%d sub-panel degree=%d |sub-panel - global series|=%.3e "
            "tolerance=%.0e"
            % (spec.plateau, spec.support, sub_coeffs.shape[1],
               sub_coeffs.shape[0] - 1, sub_error, _TABLE_TOL))
    return SineIntegralTable(
        nu0=nu0, coeffs=coeffs, panels=2 * n_panels, residual=residual,
        trailing=trailing, tail=tail, panel_coeffs=panel_coeffs,
        panel_error=panel_error, sub_coeffs=sub_coeffs, sub_error=sub_error)


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
        # images side: panels of half-width _GL_REACH / (2 T), T = support/A,
        # for the radial integrand of exponential type 2T (see the module
        # docstring); its node count, which grows as 1/A, is checked before
        # anything is allocated
        panel = _GL_REACH / self.image_radius
        n_panels = np.ceil(self.tail_radius / panel)
        nodes = _GL_NODES.size * n_panels
        lat.check_cap(nodes, "the radial rule of the images side (A=%g, image radius %.6g) "
                      "holds %.12g nodes" % (A, self.image_radius, nodes))

        # spectral side: W[c] = m(|G c|) on the coefficient box of the tail
        # ball, 0 outside the ball, with one multiplier evaluation per
        # distinct dual norm of each shell.  |G c| and |G (-c)| have the same
        # bits, so each shell enumerates only its half c >= 0 and writes
        # every weight to W[c] and W[-c].  The box is checked against the
        # cap before anything is enumerated or allocated.
        half = lat.coefficient_box(m.lattice.dual_basis, self.tail_radius)
        size = lat.box_size(half)
        lat.check_cap(size, "the weight box of the spectral tail ball (radius %.6g, lambda=%g, "
                      "A=%g) holds %.12g coefficients" % (self.tail_radius, lam, A, size))
        self._half = half.astype(np.int64)
        self._box = np.zeros(tuple(2 * self._half + 1))
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
            coeffs, vectors, norms = lat.dual_vectors(m.lattice, outer, inner, half=True)
            del vectors  # the box needs only the coefficients and norms
            # the norms come sorted, so each distinct norm is a run of equal values
            starts = np.flatnonzero(np.concatenate([[True], norms[1:] != norms[:-1]]))
            weights = np.repeat(multiplier_batch(spec, lam, A, norms[starts]),
                                np.diff(np.append(starts, norms.size)))
            del norms
            coeffs += self._half
            self._box[tuple(coeffs.T)] = weights
            # the box index of -c is 2 half - (c + half)
            np.subtract(2 * self._half, coeffs, out=coeffs)
            self._box[tuple(coeffs.T)] = weights
            del coeffs, weights
            inner = outer

        self._r_nodes, self._r_weights = _composite_gauss_legendre(self.tail_radius, int(n_panels))
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
        chunk = max(1, _BLOCK_VALUES // self._r_nodes.size)
        for lo in range(0, lengths.size, chunk):
            radii = np.multiply.outer(lengths[lo:lo + chunk], self._r_nodes)
            # a row-wise sum adds each row alike at any chunk size
            terms[lo:lo + chunk] = np.sum(sphere_fourier(n, radii) * base, axis=1)
        ends = np.cumsum(counts, dtype=int)
        values = np.array([sum(terms[end - count:end].tolist(), 0.0)
                           for count, end in zip(counts, ends)]) / (2.0 * np.pi) ** n
        return values if many else float(values[0])
