"""Model-manifold eigendata and exact kernel evaluation.

A `SpectralWindow` holds the sqrt-eigenvalues in (lo, hi] with their
multiplicities and mode data.  Kernels are exact mode sums over such
windows.  Flat tori: dual-lattice points with exact monomial derivative
factors.  Round 2-sphere: the addition theorem through Legendre
polynomials.  Neither carries quadrature error.

`spectral_function` and `cluster_kernel` take a scalar lambda or a strictly
increasing lambda grid, and a point pair or arrays of points, and return
the values of separate scalar calls bit for bit.  On tori they never
materialise the dual lattice: fixing every dual coefficient but the last
splits a window into runs of consecutive points, and each run's sum is a
Dirichlet kernel (with its beta-derivatives for derivative factors), so a
(lambda, pair) costs O(lambda^{n-1}) slabs: `lattice.slab_windows` turns
a call's windows into runs, each window end settling only the slabs its
own ball meets, and gives the on-spectrum guard its distances; the slab
phases are built once per call.  These sums match the materialised mode
sum to within 1e-12 of the sum of the mode terms' moduli.  On the sphere
one pass over the degrees serves every window, on |cos angle| with the
odd degrees' signs, so antipodal pairs sum the exact P_l(-1) = (-1)^l.

Each model carries its own `dim`, `volume`, `injectivity_radius` and
`distance(x, y)` (for points or point arrays, as the kernels take them).

Eigenfunction conventions: torus modes e^{i<k,x>}/sqrt(covol) with k a dual
point and eigenvalue |k|^2; sphere level l has sqrt-eigenvalue
sqrt(l(l+1))/R and multiplicity 2l+1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import lattice as lat
from .errors import DomainError, SpectrumError
from .lattice import ON_SPECTRUM_TOL, Lattice, point_pairs, row_dots, row_norms
from .specfun import legendre_fold, legendre_p, legendre_step


@dataclass(frozen=True)
class FlatTorus:
    lattice: Lattice

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def volume(self) -> float:
        return self.lattice.covolume

    @functools.cached_property
    def injectivity_radius(self) -> float:
        """Computed on first access (one period-lattice enumeration), then kept."""
        return lat.injectivity_radius(self.lattice)

    def distance(self, x, y):
        """|torus_log(x, y)|: a float, or a (P,) array for point arrays."""
        return lat.torus_distance(self.lattice, x, y)


@dataclass(frozen=True)
class RoundSphere2:
    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0.0:
            raise DomainError("sphere radius must be positive")

    @property
    def dim(self) -> int:
        return 2

    @property
    def volume(self) -> float:
        return 4.0 * np.pi * self.radius**2

    @property
    def injectivity_radius(self) -> float:
        return np.pi * self.radius

    def distance(self, x, y):
        """radius * `sphere_angle(x, y)`: a float, or a (P,) array for point arrays."""
        return self.radius * sphere_angle(self, x, y)

    def level_sqrt_eigenvalue(self, l: int) -> float:
        return float(np.sqrt(l * (l + 1.0)) / self.radius)


ModelManifold = FlatTorus | RoundSphere2


@dataclass(frozen=True)
class DerivIndex:
    """Multi-indices alpha (on x) and beta (on y), total order <= 2.

    Nonzero orders are torus-only; the sphere path accepts only zero.
    """

    alpha: tuple = ()
    beta: tuple = ()

    def __post_init__(self):
        for mi in (self.alpha, self.beta):
            if any((not isinstance(a, (int, np.integer))) or a < 0 for a in mi):
                raise DomainError("multi-index entries must be nonnegative integers")
        if self.total_order > 2:
            raise DomainError("total derivative order is capped at 2")

    @property
    def total_order(self) -> int:
        return int(sum(self.alpha) + sum(self.beta))

    @property
    def is_zero(self) -> bool:
        return self.total_order == 0

    def padded(self, dim: int):
        a = tuple(self.alpha) + (0,) * (dim - len(self.alpha))
        b = tuple(self.beta) + (0,) * (dim - len(self.beta))
        if len(a) != dim or len(b) != dim:
            raise DomainError("multi-index longer than manifold dimension")
        return a, b


ZERO_DERIV = DerivIndex()


@dataclass(frozen=True, eq=False)
class EigenLevel:
    """One eigenvalue level: sqrt-eigenvalue and multiplicity."""

    sqrt_eigenvalue: float
    multiplicity: int


@dataclass(frozen=True, eq=False)
class SpectralWindow:
    """Sqrt-eigenvalues in a window (lo, hi], ascending, one row per real
    eigenspace block, with its dimension as the multiplicity and its mode
    data.

    Torus: one row per pair of dual points k, -k (the cos/sin pair of
    e^{+-i<k,x>}), multiplicity 2, with the vector of the canonical half;
    the origin alone, multiplicity 1.  Sphere: one row per degree l,
    multiplicity 2l+1.
    """

    roots: np.ndarray
    mults: np.ndarray
    degrees: np.ndarray | None = None   # sphere
    vectors: np.ndarray | None = None   # torus

    def __getitem__(self, rows) -> "SpectralWindow":
        """The rows selected by a slice (views, no copy)."""
        return SpectralWindow(*(None if a is None else a[rows] for a in
                                (self.roots, self.mults, self.degrees, self.vectors)))

    def between(self, lo: float, hi: float) -> "SpectralWindow":
        """The rows with lo < root <= hi (views, found by binary search)."""
        start, stop = np.searchsorted(self.roots, [lo, hi], side="right")
        return self[start:stop]


def spectral_window(m: ModelManifold, lo: float, hi: float) -> SpectralWindow:
    """The spectrum in (lo, hi], ascending; lo < 0 takes the whole ball.

    Membership is exact: a root exactly on hi is inside, a root one ulp
    above it is not.  Torus rows are `lattice.dual_vectors(hi, inner=lo)`,
    the canonical half of the shell alone, stably sorted by norm from its
    lexicographic walk order, so in the (norm, coeffs) order of the half
    ball and `spectral_window(m, lo, H).between(lo2, hi2)` with lo <= lo2 and
    hi2 <= H equals `spectral_window(m, lo2, hi2)`.  Sphere degrees are all
    candidates l with sqrt(l(l+1))/R <= hi*R + 1, cut the same way.
    """
    if isinstance(m, RoundSphere2):
        # sqrt(l(l+1)) > l, so every degree with root <= hi is below hi*R + 1;
        # counted in floating point, so a huge hi is refused, not overflowed
        with np.errstate(over="ignore"):
            n_candidates = max(np.floor(hi * m.radius) + 2.0, 0.0)
        lat.check_cap(n_candidates, "sphere window holds %.12g candidate degrees" % n_candidates)
        ls = np.arange(int(n_candidates))
        ball = SpectralWindow(np.sqrt(ls * (ls + 1.0)) / m.radius, 2 * ls + 1, degrees=ls)
    else:
        _, vectors, norms = lat.dual_vectors(m.lattice, hi, inner=lo)
        # np.take, faster than fancy indexing; each array freed once sorted
        order = np.argsort(norms, kind="stable")
        norms = np.take(norms, order)
        vectors = np.take(vectors, order, axis=0)
        # only the origin has norm 0, and it has no partner -k
        ball = SpectralWindow(norms, np.where(norms > 0.0, 2, 1), vectors=vectors)
    return ball.between(lo, hi)


def eigenlevels(m: ModelManifold, lambda_max: float):
    """All eigenvalue levels with sqrt-eigenvalue <= lambda_max, ascending.

    A level's multiplicity is the sum of its window rows'.  Each sphere
    degree is a level; torus rows join one level while each norm exceeds
    the previous one by at most ON_SPECTRUM_TOL * (1 + norm).
    """
    if lambda_max <= 0.0:
        raise DomainError("lambda_max must be positive")
    win = spectral_window(m, -1.0, lambda_max)
    norms = win.roots
    if isinstance(m, RoundSphere2):
        starts = np.arange(norms.size)  # a level per degree
    else:
        breaks = np.diff(norms) > ON_SPECTRUM_TOL * (1.0 + norms[1:])
        starts = np.flatnonzero(np.concatenate(([True], breaks)))
    mults = np.add.reduceat(win.mults, starts)
    return [EigenLevel(r, k) for r, k in zip(norms[starts].tolist(), mults.tolist())]


def sphere_angle(m: RoundSphere2, x, y):
    """Angle between points given as 3-vectors of length `radius`, for
    points or (P, 3) point arrays paired as in `point_pairs`: a float or a
    (P,) array, with the bits of per-pair calls."""
    xs, ys, many = point_pairs(x, y)
    if xs.shape[1] != 3:
        raise DomainError("sphere points are 3-vectors")
    if np.any(np.abs(row_norms(np.vstack([xs, ys])) - m.radius) > 1e-9 * m.radius):
        raise DomainError("point does not lie on the sphere of radius %g" % m.radius)
    angles = np.arctan2(row_norms(np.cross(xs, ys)), row_dots(xs, ys))
    return angles if many else float(angles[0])


def _bernoulli(top: int) -> list:
    """The Bernoulli numbers B_0..B_top (B_1 = -1/2) as exact fractions,
    from sum_{j <= m} C(m+1, j) B_j = 0."""
    bern = [Fraction(1)]
    for m in range(1, top + 1):
        bern.append(-sum(comb(m + 1, j) * b for j, b in enumerate(bern)) / (m + 1))
    return bern


def _power_sum_table(top: int) -> list:
    """Per even m <= top, the coefficients (highest power first) of the
    polynomial in h^2 with h * poly = sum of s^m over the N = 2h centred
    points s = -(N-1)/2, ..., (N-1)/2: the midpoint Euler-Maclaurin sum,
    (2/(m+1)) sum_k C(m+1, 2k) B_2k(1/2) h^(m+1-2k), which is exact.  Each
    coefficient is computed as a fraction and rounded once."""
    bern = _bernoulli(top)
    return [[float(Fraction(2, m + 1) * comb(m + 1, 2 * k) * (Fraction(2) ** (1 - 2 * k) - 1)
                   * bern[2 * k]) for k in range(m // 2 + 1)]
            for m in range(0, top + 1, 2)]


# Dirichlet moments switch to their power series where N |beta| < 1; ten
# terms leave a truncation below 1e-25 of the leading one
SERIES_SWITCH = 1.0
SERIES_TERMS = 10
_POWER_SUMS = _power_sum_table(2 * SERIES_TERMS)


def _dirichlet_moments(counts: np.ndarray, beta: np.ndarray, order: int) -> list:
    """Sums over the `counts` centred points s (spacing 1, symmetric about
    0) of cos(s beta), and for order > 0 also s sin(s beta) and
    s^2 cos(s beta): [E0] or [E0, E1, E2], broadcast over counts and beta.

    Closed forms are the Dirichlet kernel D = sin(N x)/sin(x), x = beta/2,
    and its x-derivatives D' = (N cos(N x) - D cos x)/sin x and
    D'' = (1 - N^2) D - 2 cot(x) D'; E1 = -D'/2 and E2 = -D''/4.  They
    cancel badly as N |beta| -> 0, so there the power-sum series
    E = sum_j (-1)^j beta^2j / (2j)! * P_2j (P_m the centred power sums)
    is used instead; beta must lie in [-pi, pi].
    """
    counts, beta = np.broadcast_arrays(counts, beta)
    x = 0.5 * beta
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_x = np.sin(x)
        moments = [np.sin(counts * x) / sin_x]
        if order:
            d1 = (counts * np.cos(counts * x) - moments[0] * np.cos(x)) / sin_x
            d2 = (1.0 - counts * counts) * moments[0] - 2.0 * np.cos(x) / sin_x * d1
            moments += [-0.5 * d1, -0.25 * d2]
    series = counts * np.abs(beta) < SERIES_SWITCH
    # at beta = 0 every term past j = 0 adds a zero, so only that one is taken
    zero = series & (beta == 0.0)
    for rows, terms in ((series & ~zero, SERIES_TERMS), (zero, 1)):
        if rows.any():
            for moment, value in zip(moments, _moment_series(counts[rows], beta[rows],
                                                             order, terms)):
                moment[rows] = value
    return moments


def _moment_series(counts: np.ndarray, b: np.ndarray, order: int, terms: int) -> list:
    """The first `terms` terms of `_dirichlet_moments`' power-sum series at
    counts N and betas b (1-D arrays of one size): [E0] or [E0, E1, E2]."""
    h = 0.5 * counts
    h2 = h * h
    power = []   # P_0, P_2, ..., as far as the terms reach
    for coef in _POWER_SUMS[:terms + bool(order)]:
        acc = np.full(h.shape, coef[0])
        for c in coef[1:]:
            acc = acc * h2 + c
        power.append(h * acc)
    weight = np.ones_like(b)   # (-1)^j beta^2j / (2j)!
    sums = [np.zeros_like(b) for _ in range(3 if order else 1)]
    for j in range(terms):
        sums[0] += weight * power[j]
        if order:
            sums[1] += weight / (2 * j + 1) * power[j + 1]
            sums[2] += weight * power[j + 1]
        weight = -weight * b * b / ((2 * j + 1) * (2 * j + 2))
    if order:
        sums[1] *= b
    return sums


def _slab_phases(m: FlatTorus, prefixes: np.ndarray, xs, ys):
    """The lambda-independent parts of `_slab_window_sums` for every pair
    and slab: u, the part of each slab's prefix (S, dim); phi = <u, y-x>
    (P, S); and beta = <g, y-x> reduced to [-pi, pi] (P, 1), g the last
    dual generator."""
    G = m.lattice.dual_basis
    g = G[:, -1]
    # elementwise products (no BLAS), so every value is the same whatever
    # the number of slabs or pairs
    u = sum(prefixes[:, i, None] * G[:, i] for i in range(m.dim - 1))
    delta = ys - xs
    phi = sum(delta[:, j, None] * u[None, :, j] for j in range(m.dim))
    beta = sum(delta[:, j] * g[j] for j in range(m.dim))
    return u, phi, (beta - 2.0 * np.pi * np.rint(beta / (2.0 * np.pi)))[:, None]


def _slab_window_sums(m: FlatTorus, phases, runs, d: DerivIndex):
    """The windowed mode sum of d_x^alpha d_y^beta phi_k(x) phi_k(y) for
    every pair, over runs of dual points: `phases` is the `_slab_phases`
    of the slabs and pairs, `runs` one window's (slab, start, stop) from
    `lattice.slab_windows`, and a run holds the points u + t g for
    start <= t <= stop, u the part of its slab's prefix and g the last
    dual generator.

    A run's sum of (i k)^gamma e^{i<k, y-x>} is i^|gamma| e^{i(phi + m beta)}
    times the sum of a polynomial in the centred index s = t - m (degree
    |gamma| <= 2) against e^{i s beta}, i.e. of Dirichlet moments, with
    phi = <u, y-x>, beta = <g, y-x> reduced to [-pi, pi] and m the run's
    midpoint.  Values are summed over the runs in slab order, so they
    depend only on the window, not on which other windows or pairs a call
    carries.
    """
    g = m.lattice.dual_basis[:, -1]
    u, phi, beta = phases
    slab, starts, stops = runs
    counts = (stops - starts + 1).astype(float)
    mid = 0.5 * (starts + stops)
    alpha, beta_idx = d.padded(m.dim)
    axes = [j for j in range(m.dim) for _ in range(alpha[j] + beta_idx[j])]
    # the factor i^|gamma| is a quarter turn of phase per derivative
    theta = phi[:, slab] + mid * beta + 0.5 * np.pi * len(axes)
    # k^gamma as a polynomial q0 + q1 s + q2 s^2 in the centred index:
    # k_j = c_j + g_j s along a run, c_j its value at the midpoint
    q = [1.0, 0.0, 0.0]
    for j in axes:
        c = u[slab, j] + g[j] * mid
        q = [q[0] * c, q[0] * g[j] + q[1] * c, q[1] * g[j] + q[2] * c]
    moments = _dirichlet_moments(counts, beta, len(axes))
    terms = q[0] * moments[0] * np.cos(theta)
    if axes:
        terms = terms + q[2] * moments[2] * np.cos(theta) - q[1] * moments[1] * np.sin(theta)
    return (-1.0) ** sum(alpha) * np.sum(terms, axis=1) / m.lattice.covolume


def _sphere_window_sums(m: RoundSphere2, first, stop, xs, ys) -> np.ndarray:
    """Level sums sum_l (2l+1)/vol P_l(cos angle) over each window's
    degrees first[i] <= l < stop[i], shape (L, P).  One ascent of
    legendre_p's recurrence serves every window: it starts from
    P_1 = legendre_p(1, .) on |cos angle| and takes one `legendre_step`
    per degree, the odd degrees taking the sign of the cosine, so every P_l
    is legendre_p(l, .) bit for bit at O(1) cost.  Each window accumulates its own degrees from 0.0 in ascending
    order, exactly as a per-window loop."""
    cosines, sign = legendre_fold(np.cos(sphere_angle(m, xs, ys)))
    totals = np.zeros((first.size, cosines.size))
    p = legendre_p(1, cosines)
    d = p - 1.0
    for l in range(int(stop.max())):
        if l >= 2:
            p, d = legendre_step(l - 1, cosines, p, d)
        rows = (first <= l) & (l < stop)
        if rows.any():
            level = p * sign if l % 2 else (p if l else 1.0)   # P_0 = 1
            totals[rows] += (2 * l + 1) / m.volume * level
    return totals


def _lambda_values(lam):
    """A scalar lambda or a strictly increasing 1-D grid, as a 1-D array,
    and whether it was a scalar."""
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1 or lams.size == 0:
        raise DomainError("lambda must be a scalar or a nonempty 1-D grid")
    if not np.all(np.isfinite(lams)):
        raise DomainError("lambda must be finite")
    if lams.ndim == 0:
        return lams.reshape(1), True
    if np.any(np.diff(lams) <= 0.0):
        raise DomainError("lambda grid must be strictly increasing")
    return lams, False


def _window_sums(m: ModelManifold, lows, highs, x, y, d: DerivIndex, scalar_lam: bool,
                 guard: bool = False):
    """The exact mode sum over every window (lows[i], highs[i]] and pair: a
    float, or an array of shape (L,), (P,) or (L, P) as the lambda and
    point arguments ask.  One set of slabs (one ball of degrees) out to the
    largest high serves every window; on tori `lattice.slab_windows` gives
    each window's runs and the guard's distances, and the slab phases are
    built once.

    With `guard`, every high (a lambda) must be at least ON_SPECTRUM_TOL
    from the spectrum, else SpectrumError names the first that is not; the
    guard and the cap are checked before any sum.
    """
    xs, ys, many = point_pairs(x, y)
    reach = np.max(highs) + (2.0 * ON_SPECTRUM_TOL if guard else 0.0)
    if isinstance(m, RoundSphere2):
        if not d.is_zero:
            raise DomainError("derivatives are unsupported on the sphere")
        # take the ball a hair beyond lambda so the guard sees both sides
        ball = spectral_window(m, -1.0, reach)
        if guard:
            right = np.minimum(np.searchsorted(ball.roots, highs), ball.roots.size - 1)
            near = np.minimum(np.abs(ball.roots[right] - highs),
                              np.abs(ball.roots[np.maximum(right - 1, 0)] - highs))
            _check_off_spectrum(highs, near)
        # the ball's rows are the degrees 0, 1, ..., so each window's
        # degrees are the rows lo < root <= hi, as `between` finds them
        first, stop = (np.searchsorted(ball.roots, ends, side="right")
                       for ends in (lows, highs))
        values = _sphere_window_sums(m, first, stop, xs, ys)
    else:
        G = m.lattice.dual_basis
        prefixes = lat.slab_prefixes(G, reach)
        windows, gaps = lat.slab_windows(G, prefixes, lows, highs)
        if guard:
            _check_off_spectrum(highs, gaps)
        phases = _slab_phases(m, prefixes, xs, ys)
        values = np.array([_slab_window_sums(m, phases, runs, d) for runs in windows])
    if not many:
        values = values[:, 0]
    if scalar_lam:
        values = values[0]
    return float(values) if values.ndim == 0 else values


def _check_off_spectrum(lams, near):
    if np.any(near < ON_SPECTRUM_TOL):
        raise SpectrumError(
            "lambda=%.12g is within %g of the spectrum; shift lambda "
            "(e.g. by a small window width) and retry"
            % (lams[np.argmax(near < ON_SPECTRUM_TOL)], ON_SPECTRUM_TOL))


def spectral_function(m: ModelManifold, lam, x, y, d: DerivIndex = ZERO_DERIV):
    """The spectral function E_lambda(x, y): full projector kernel onto
    eigenvalues <= lambda^2, as an exact mode sum.

    `lam` is a scalar or a strictly increasing 1-D grid; x and y are points
    or (P, dim) arrays of points (a single point pairs with every row of the
    other).  The result is a float, or an array of shape (L,), (P,) or
    (L, P), and every value equals that of a scalar call bit for bit.
    Torus sums run slab by slab in closed form (see `_slab_window_sums`):
    they match the materialised mode sum to 1e-12 of the sum of the mode
    terms' moduli.  Sphere sums add the levels in ascending order, as a
    per-level loop does.

    On-spectrum rule: every lambda must be at least ON_SPECTRUM_TOL
    (absolute, 1e-9) away from every sqrt-eigenvalue, else SpectrumError
    names the first lambda that is not.  The rule is absolute, unlike
    `eigenlevels`, which joins torus norms into one level while they differ
    by at most ON_SPECTRUM_TOL * (1 + norm).  `lattice.check_cap` (on torus
    slabs, sphere degrees) and the guard run before any sum.  Derivatives
    are torus-only.
    """
    lams, scalar = _lambda_values(lam)
    if lams[0] <= 0.0:
        raise DomainError("lambda must be positive")
    return _window_sums(m, np.full(lams.size, -1.0), lams, x, y, d, scalar, guard=True)


def cluster_kernel(m: ModelManifold, lam, width, x, y, d: DerivIndex = ZERO_DERIV):
    """Windowed projector kernel over sqrt-eigenvalues in (lambda, lambda+width],
    computed as a single windowed mode sum.

    `lam`, x and y take grids and point arrays as in `spectral_function`,
    with the same tolerance against the materialised torus sum.  `width` is
    a scalar or an array of `lam`'s shape, one width per lambda (as the
    1/log lambda rule needs); each value equals that of a scalar call bit
    for bit.  Window membership uses exact half-open comparisons, so
    representable boundary values (e.g. integer lambda on the square 2 pi
    torus) are unambiguous even when they sit on the spectrum.
    """
    lams, scalar = _lambda_values(lam)
    widths = np.asarray(width, dtype=float)
    if widths.ndim and widths.shape != np.shape(lam):
        raise DomainError("width must be a scalar or an array of lambda's shape %s, got %s"
                          % (np.shape(lam), widths.shape))
    if lams[0] <= 0.0 or not np.all((widths > 0.0) & (widths < np.inf)):
        raise DomainError("need lambda > 0 and finite width > 0")
    with np.errstate(over="ignore"):  # an infinite window end meets the cap
        highs = lams + widths
    return _window_sums(m, lams, highs, x, y, d, scalar)
