"""Model-manifold eigendata and exact kernel evaluation.

Every kernel is a mode sum over one `SpectralWindow`: the sqrt-eigenvalues
in (lo, hi] with their multiplicities and mode data.  Flat tori: mode sums
over dual-lattice points (with exact monomial derivative factors).  Round
2-sphere: addition theorem through Legendre polynomials, so kernels carry
no quadrature error.

`spectral_function` and `cluster_kernel` take a scalar lambda or a strictly
increasing lambda grid, and a point pair or arrays of points.  Each call
builds one window at the largest lambda and sums every (lambda, pair) over
the slice of it that a separate scalar call would have built, so a scan
enumerates the spectrum once and still returns the scalar values bit for
bit.

Eigenfunction conventions: torus modes e^{i<k,x>}/sqrt(covol) with k a dual
point and eigenvalue |k|^2; sphere level l has sqrt-eigenvalue
sqrt(l(l+1))/R and multiplicity 2l+1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice as lat
from .errors import DomainError, ResourceLimitError, SpectrumError
from .lattice import Lattice
from .specfun import legendre_p

# lambda must stay this far from the spectrum (avoids half-counting
# ambiguity); an absolute distance, unlike the relative tie rule of eigenlevels
ON_SPECTRUM_TOL = 1e-9


@dataclass(frozen=True)
class FlatTorus:
    lattice: Lattice

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def volume(self) -> float:
        return self.lattice.covolume


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
    """Sqrt-eigenvalues in a window (lo, hi], ascending, with multiplicities
    and mode data.

    Torus: one row per dual point, multiplicity 1, with its dual vector and
    integer coefficients.  Sphere: one row per degree l, multiplicity 2l+1.
    """

    roots: np.ndarray
    mults: np.ndarray
    degrees: np.ndarray | None = None   # sphere
    vectors: np.ndarray | None = None   # torus
    coeffs: np.ndarray | None = None    # torus

    def __getitem__(self, rows) -> "SpectralWindow":
        """The rows selected by a slice (views, no copy)."""
        return SpectralWindow(*(None if a is None else a[rows] for a in
                                (self.roots, self.mults, self.degrees,
                                 self.vectors, self.coeffs)))

    def between(self, lo: float, hi: float) -> "SpectralWindow":
        """The rows with lo < root <= hi (views, found by binary search)."""
        start, stop = np.searchsorted(self.roots, [lo, hi], side="right")
        return self[start:stop]


def spectral_window(m: ModelManifold, lo: float, hi: float,
                    cap: int = lat.DEFAULT_ENUM_CAP) -> SpectralWindow:
    """The spectrum in (lo, hi], ascending; lo < 0 takes the whole ball.

    Membership is exact: a root exactly on hi is inside, a root one ulp
    above it is not.  Torus rows are views into `lattice.dual_vectors(hi)`,
    whose (norm, coeffs) order lists the rows of every smaller ball as a
    prefix, so `spectral_window(m, lo, H).between(lo2, hi2)` with
    lo <= lo2 and hi2 <= H equals `spectral_window(m, lo2, hi2)`.  Sphere
    degrees are all candidates l with sqrt(l(l+1))/R <= hi*R + 1, cut the
    same way.
    """
    if isinstance(m, RoundSphere2):
        # sqrt(l(l+1)) > l, so every degree with root <= hi is below hi*R + 1
        n_candidates = max(int(np.floor(hi * m.radius)) + 2, 0)
        if n_candidates > cap:
            raise ResourceLimitError(
                "sphere window holds %d candidate degrees, exceeding the cap %d"
                % (n_candidates, cap))
        ls = np.arange(n_candidates)
        ball = SpectralWindow(np.sqrt(ls * (ls + 1.0)) / m.radius, 2 * ls + 1, degrees=ls)
    else:
        coeffs, vectors, norms = lat.dual_vectors(m.lattice, hi, cap)
        ball = SpectralWindow(norms, np.ones(norms.size, dtype=np.int64),
                              vectors=vectors, coeffs=coeffs)
    return ball.between(lo, hi)


def eigenlevels(m: ModelManifold, lambda_max: float, cap: int = lat.DEFAULT_ENUM_CAP):
    """All eigenvalue levels with sqrt-eigenvalue <= lambda_max, ascending.

    Torus dual points join one level while each norm exceeds the previous
    one by at most ON_SPECTRUM_TOL * (1 + norm).
    """
    if lambda_max <= 0.0:
        raise DomainError("lambda_max must be positive")
    win = spectral_window(m, -1.0, lambda_max, cap)
    if isinstance(m, RoundSphere2):
        return [EigenLevel(r, k) for r, k in zip(win.roots.tolist(), win.mults.tolist())]
    norms = win.roots
    breaks = np.diff(norms) > ON_SPECTRUM_TOL * (1.0 + norms[1:])
    starts = np.flatnonzero(np.concatenate(([True], breaks)))
    stops = np.append(starts[1:], norms.size)
    return [EigenLevel(float(norms[a]), int(b - a)) for a, b in zip(starts, stops)]


def sphere_angle(m: RoundSphere2, x, y) -> float:
    """Angle between two points given as 3-vectors of length `radius`."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (3,) or y.shape != (3,):
        raise DomainError("sphere points are 3-vectors")
    for p in (x, y):
        if abs(np.linalg.norm(p) - m.radius) > 1e-9 * m.radius:
            raise DomainError("point does not lie on the sphere of radius %g" % m.radius)
    return float(np.arctan2(np.linalg.norm(np.cross(x, y)), float(x @ y)))


def _torus_mode_factor(vectors: np.ndarray, alpha, beta):
    """Exact derivative factor: d_x^alpha d_y^beta acting on
    cos(<k, y-x>) contributes (-1)^|alpha| * (i k)^{alpha+beta}."""
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    total = sum(gamma)
    mono = np.ones(vectors.shape[0])
    for j, g in enumerate(gamma):
        if g:
            mono = mono * vectors[:, j] ** g
    return ((-1.0) ** sum(alpha)) * (1j**total) * mono


def _window_sum(m: ModelManifold, win: SpectralWindow, x, y, d: DerivIndex) -> float:
    """Exact mode sum of d_x^alpha d_y^beta phi_j(x) phi_j(y) over a window."""
    if isinstance(m, RoundSphere2):
        if not d.is_zero:
            raise DomainError("derivatives are unsupported on the sphere")
        if win.degrees.size == 0:
            return 0.0
        c = np.cos(sphere_angle(m, x, y))
        total = 0.0
        for l, mult in zip(win.degrees.tolist(), win.mults.tolist()):
            total += mult / m.volume * legendre_p(l, c)
        return float(total)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    alpha, beta = d.padded(m.dim)
    phases = win.vectors @ (y - x)
    factor = _torus_mode_factor(win.vectors, alpha, beta)
    return float(np.real(np.sum(factor * np.exp(1j * phases)))) / m.lattice.covolume


def _lambda_values(lam):
    """A scalar lambda or a strictly increasing 1-D grid, as a 1-D array,
    and whether it was a scalar."""
    lams = np.asarray(lam, dtype=float)
    if lams.ndim > 1 or lams.size == 0:
        raise DomainError("lambda must be a scalar or a nonempty 1-D grid")
    if lams.ndim == 0:
        return lams.reshape(1), True
    if np.any(np.diff(lams) <= 0.0):
        raise DomainError("lambda grid must be strictly increasing")
    return lams, False


def _point_pairs(x, y):
    """Points x, y (vectors, or (P, dim) arrays; a single point pairs with
    every row of the other) as two (P, dim) arrays, and whether either was
    a point set."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim not in (1, 2) or y.ndim not in (1, 2):
        raise DomainError("points are vectors or (P, dim) arrays of vectors")
    try:
        xs, ys = np.broadcast_arrays(np.atleast_2d(x), np.atleast_2d(y))
    except ValueError:
        raise DomainError("point arrays of shapes %s and %s do not pair up"
                          % (x.shape, y.shape)) from None
    return xs, ys, x.ndim == 2 or y.ndim == 2


def _sums_over_slices(m, windows, x, y, d, scalar_lam):
    """`_window_sum` for every (window, pair): a float, or an array of
    shape (L,), (P,) or (L, P) as the lambda and point arguments ask."""
    xs, ys, many = _point_pairs(x, y)
    values = np.array([[_window_sum(m, win, xp, yp, d) for xp, yp in zip(xs, ys)]
                       for win in windows])
    if not many:
        values = values[:, 0]
    if scalar_lam:
        values = values[0]
    return float(values) if values.ndim == 0 else values


def spectral_function(m: ModelManifold, lam, x, y,
                      d: DerivIndex = ZERO_DERIV, cap: int = lat.DEFAULT_ENUM_CAP):
    """The spectral function E_lambda(x, y): full projector kernel onto
    eigenvalues <= lambda^2, as an exact mode sum.

    `lam` is a scalar or a strictly increasing 1-D grid; x and y are points
    or (P, dim) arrays of points (a single point pairs with every row of the
    other).  The result is a float, or an array of shape (L,), (P,) or
    (L, P).  One window is built at the largest lambda; each lambda sums
    its prefix, so every value equals that of a scalar call bit for bit.

    On-spectrum rule: every lambda must be at least ON_SPECTRUM_TOL
    (absolute, 1e-9) away from every sqrt-eigenvalue, else SpectrumError
    names the first lambda that is not.  The rule is absolute, unlike
    `eigenlevels`, which joins torus norms into one level while they differ
    by at most ON_SPECTRUM_TOL * (1 + norm).  The ball up to the largest
    lambda is enumerated before any sum, so a cap error comes first.
    Derivatives are torus-only.
    """
    lams, scalar = _lambda_values(lam)
    if lams[0] <= 0.0:
        raise DomainError("lambda must be positive")
    # take the ball a hair beyond lambda so the guard sees both sides
    win = spectral_window(m, -1.0, lams[-1] + 2.0 * ON_SPECTRUM_TOL, cap)
    # the roots on either side of each lambda are its nearest ones
    right = np.minimum(np.searchsorted(win.roots, lams), win.roots.size - 1)
    near = np.minimum(np.abs(win.roots[right] - lams),
                      np.abs(win.roots[np.maximum(right - 1, 0)] - lams))
    if np.any(near < ON_SPECTRUM_TOL):
        raise SpectrumError(
            "lambda=%.12g is within %g of the spectrum; shift lambda "
            "(e.g. by a small window width) and retry"
            % (lams[np.argmax(near < ON_SPECTRUM_TOL)], ON_SPECTRUM_TOL))
    return _sums_over_slices(m, [win.between(-1.0, l) for l in lams], x, y, d, scalar)


def cluster_kernel(m: ModelManifold, lam, width: float, x, y,
                   d: DerivIndex = ZERO_DERIV, cap: int = lat.DEFAULT_ENUM_CAP):
    """Windowed projector kernel over sqrt-eigenvalues in (lambda, lambda+width],
    computed as a single windowed mode sum.

    `lam`, x and y take grids and point arrays as in `spectral_function`;
    one window (lambda_min, lambda_max + width] serves every lambda.
    Window membership uses exact half-open comparisons, so representable
    boundary values (e.g. integer lambda on the square 2 pi torus) are
    unambiguous even when they sit on the spectrum.
    """
    lams, scalar = _lambda_values(lam)
    if lams[0] <= 0.0 or width <= 0.0:
        raise DomainError("need lambda > 0 and width > 0")
    win = spectral_window(m, lams[0], lams[-1] + width, cap)
    return _sums_over_slices(m, [win.between(l, l + width) for l in lams], x, y, d, scalar)
