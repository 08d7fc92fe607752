"""Statistical machinery: log-log exponent fitting, localized sums and
integrals with their boundedness ratios, and the windowed diagonal cluster
scan."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice as lat
from .errors import DomainError
from .manifolds import (
    ZERO_DERIV,
    DerivIndex,
    FlatTorus,
    ModelManifold,
    RoundSphere2,
    spectral_window,
)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    max_abs_residual: float
    grid_size: int


@dataclass(frozen=True, eq=False)
class ScanReport:
    """Per-lambda scan values with a fitted growth exponent.

    `normalized` carries an optional companion column (e.g. value * log
    lambda / lambda^p for boundedness inspection)."""

    lambda_grid: np.ndarray
    sup_values: np.ndarray
    fitted_exponent: float
    fit_residual: float
    normalized: np.ndarray | None = None


def loglog_fit(xs, ys) -> FitResult:
    """Least squares for log y = slope * log x + intercept (natural logs)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape:
        raise DomainError("xs and ys must be 1-d arrays of equal length")
    if xs.size < 3:
        raise DomainError("need at least 3 points to fit")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise DomainError("loglog_fit requires strictly positive data")
    if np.any(np.diff(xs) <= 0.0):
        raise DomainError("xs must be strictly increasing")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return FitResult(float(slope), float(intercept), float(np.max(np.abs(resid))), xs.size)


def scan_report(lambda_grid, values, normalized=None) -> ScanReport:
    fit = loglog_fit(lambda_grid, values)
    return ScanReport(
        lambda_grid=np.asarray(lambda_grid, dtype=float),
        sup_values=np.asarray(values, dtype=float),
        fitted_exponent=fit.slope,
        fit_residual=fit.max_abs_residual,
        normalized=None if normalized is None else np.asarray(normalized, dtype=float),
    )


def _check_localized(lam: float, N: int, p: float, what: str):
    """The domain shared by the localized sum and integral: lam >= 1,
    integer N >= 2, integer p >= 0 (the closed forms are binomial sums) and
    N > p + 1 (convergence)."""
    if lam < 1.0:
        raise DomainError("lam must be >= 1")
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise DomainError("N must be an integer >= 2")
    if p < 0.0 or not float(p).is_integer():
        raise DomainError("p=%r must be a nonnegative integer (polynomial weights)" % (p,))
    if N - p <= 1.0:
        raise DomainError("%s diverges unless N > p + 1" % what)


def _binomial_integral(a: float, sign: float, lo: float, hi: float, N: int, p: int) -> float:
    """int_lo^hi y^{-N} (a + sign * y)^p dy for integer p >= 0 and N > p + 1
    (hi may be inf): the binomial expansion integrated term by term."""
    total = 0.0
    binom = 1.0
    for j in range(p + 1):
        # C(p, j) a^{p-j} sign^j [y^{j-N+1}]_hi^lo / (N-1-j)
        e = j - N + 1.0
        ends = lo**e - (0.0 if hi == np.inf else hi**e)
        total += binom * a ** (p - j) * sign**j * ends / (N - 1.0 - j)
        binom = binom * (p - j) / (j + 1.0)
    return total


def localized_sum(lam: float, N: int, p: float) -> float:
    """sum_{k=0}^inf (1 + |lam - k|)^{-N} k^p for integer p.

    The sum is truncated at K and the monotone tail is replaced by the
    midpoint of its integral bracket, so the error is below
    1e-12 * max(1, lam^p).
    """
    _check_localized(lam, N, p, "sum")
    scale = max(1.0, float(lam) ** p)
    # bracket width <= g(K)/2 with g(t) = (1+t-lam)^{-N} t^p decreasing
    y0 = 64.0
    while (1.0 + y0) ** (-float(N)) * (y0 + lam) ** p > 2e-12 * scale:
        y0 *= 2.0
        if y0 > 4e6:
            raise DomainError("term budget exhausted; N too small for p")
    kmax = int(np.ceil(lam + y0))
    k = np.arange(0, kmax + 1, dtype=float)
    head = float(np.sum((1.0 + np.abs(lam - k)) ** (-float(N)) * k**p))
    # the tail in y = 1 + t - lam, where t^p = (y + lam - 1)^p
    upper = _binomial_integral(lam - 1.0, 1.0, kmax + 1.0 - lam, np.inf, N, int(p))
    lower = _binomial_integral(lam - 1.0, 1.0, kmax + 2.0 - lam, np.inf, N, int(p))
    return head + 0.5 * (upper + lower)


def localized_integral(lam: float, N: int, p: float) -> float:
    """int_1^inf (1 + |lam - r|)^{-N} (1 + r)^p dr for integer p, in closed
    form on either side of r = lam."""
    _check_localized(lam, N, p, "integral")
    # r <= lam: y = 1 + lam - r, 1 + r = lam + 2 - y; r >= lam: y = 1 + r - lam
    left = _binomial_integral(lam + 2.0, -1.0, 1.0, lam, N, int(p))
    right = _binomial_integral(lam, 1.0, 1.0, np.inf, N, int(p))
    return float(left + right)


def _sphere_diagonal_sums(m: RoundSphere2, grid, widths, d: DerivIndex):
    """Per (lambda, A): the level count of (lambda, lambda + A] and its
    sum of multiplicity / volume, all slices of one window."""
    ball = spectral_window(m, float(np.min(grid)), max(lam + A for lam, A in zip(grid, widths)))
    counts, values = [], []
    for lam, A in zip(grid, widths):
        win = ball.between(lam, lam + A)
        counts.append(win.roots.size)
        # a running sum over ascending degrees (np.sum would pair terms
        # and change the last bits)
        values.append(np.cumsum(win.mults / m.volume)[-1] if win.roots.size else 0.0)
    return counts, values


def _torus_diagonal_sums(m: FlatTorus, grid, widths, d: DerivIndex):
    """Per (lambda, A): the dual-point count of (lambda, lambda + A] and its
    sum of k^(2 alpha) / covolume, from the runs of one set of slabs."""
    G = m.lattice.dual_basis
    prefixes = lat.slab_prefixes(G, max(lam + A for lam, A in zip(grid, widths)))
    form = lat.slab_form(G, prefixes)
    u = prefixes @ G[:, :-1].T
    alpha, _ = d.padded(m.dim)
    counts, values = [], []
    for lam, A in zip(grid, widths):
        slab, starts, stops = lat.slab_runs(lat.slab_ends(G, prefixes, lam + A, form),
                                            lat.slab_ends(G, prefixes, lam, form))
        lengths = stops - starts + 1
        counts.append(int(lengths.sum()))
        if d.is_zero:
            values.append(counts[-1] / m.lattice.covolume)
            continue
        # each run's sum of k_j^2 = (u_j + g_j t)^2 from power sums of t
        j = alpha.index(1)
        g = G[j, -1]
        sum_t = (starts + stops) * lengths // 2
        sum_t2 = _square_sum(stops) - _square_sum(starts - 1)
        per_run = u[slab, j] ** 2 * lengths + 2.0 * u[slab, j] * g * sum_t + g * g * sum_t2
        values.append(np.sum(per_run) / m.lattice.covolume)
    return counts, values


def _square_sum(n):
    """sum_{t=1}^{n} t^2 as an exact integer polynomial (valid for every
    integer n, so differences give sums over any run)."""
    return n * (n + 1) * (2 * n + 1) // 6


def cluster_sup_scan(m: ModelManifold, lambda_grid, A_rule,
                     d: DerivIndex = ZERO_DERIV) -> ScanReport:
    """Diagonal windowed sums sup_x sum_{lambda_j in (lambda, lambda+A]}
    |d^alpha phi_j(x)|^2 along a lambda grid.

    On these models the diagonal sum is constant in x (torus modes have
    constant modulus; the sphere level sum is rotation invariant), so the
    sup over any x-grid equals the common value.  A_rule is a fixed width
    or "one-over-log" for A = 1/log lambda; the one-over-log report carries
    value * log(lambda) / lambda^{n-1+2|alpha|} in `normalized`.  Torus
    windows are counted slab by slab (integer run lengths, and closed-form
    power sums of the last coefficient for derivatives); one set of slabs,
    and on the sphere one window, up to max(lambda + A) serves the grid.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    one_over_log = isinstance(A_rule, str)
    if one_over_log and A_rule != "one-over-log":
        raise DomainError("A_rule must be a positive width or 'one-over-log'")
    if tuple(d.alpha) != tuple(d.beta):
        raise DomainError("cluster sup scan takes matched derivatives (alpha == beta)")
    if isinstance(m, RoundSphere2) and not d.is_zero:
        raise DomainError("derivatives are unsupported on the sphere")
    if grid.size == 0:
        raise DomainError("lambda grid is empty")
    n = m.dim
    widths = [1.0 / np.log(lam) if one_over_log else float(A_rule) for lam in grid]
    if not all(0.0 < A < np.inf for A in widths):
        raise DomainError("window width must be positive and finite "
                          "(the one-over-log rule needs lambda > 1)")
    diagonal_sums = _sphere_diagonal_sums if isinstance(m, RoundSphere2) else _torus_diagonal_sums
    counts, values = diagonal_sums(m, grid, widths, d)
    if 0 in counts:
        lam, A = grid[counts.index(0)], widths[counts.index(0)]
        raise DomainError("lambda=%.6g: the window (%.6g, %.6g] holds no eigenvalue"
                          % (lam, lam, lam + A))
    values = np.array(values)
    normalized = None
    if one_over_log:
        exponent = n - 1 + 2 * sum(d.alpha)
        normalized = values * np.log(grid) / grid**exponent
    return scan_report(grid, values, normalized=normalized)
