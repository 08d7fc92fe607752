"""Monochromatic random waves over a spectral window: seeded Gaussian
ensembles, empirical vs exact covariance, and the universal Bessel limit of
the rescaled covariance.

Torus ensembles sample cos/sin mode pairs over the window's dual points;
sphere ensembles sample an explicit real orthonormal basis per level
(spherical-harmonic-normalized associated Legendre functions).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .lattice import row_norms
from .manifolds import FlatTorus, ModelManifold, point_pairs, cluster_kernel, spectral_window
from .rng import BLOCK_VALUES, gaussian_matrix
from .specfun import universal_covariance


def _sphere_legendre_rows(l: int, theta: np.ndarray) -> np.ndarray:
    """Spherical-harmonic-normalised associated Legendre values
    Pbar_l^m(cos theta) = Y_l^m(theta, 0) (Condon-Shortley phase) for
    m = 0..l, shape (l+1, N).  Every order m starts from the sectoral seed
    Pbar_m^m = -sqrt((2m+1)/(2m)) sin(theta) Pbar_{m-1}^{m-1}, Pbar_0^0 =
    1/sqrt(4 pi), and climbs in degree by the stable three-term recurrence
    Pbar_k^m = a cos(theta) Pbar_{k-1}^m - b Pbar_{k-2}^m with
    a = sqrt((4k^2 - 1)/(k^2 - m^2)) and
    b = sqrt((2k+1)(k-1-m)(k-1+m)/((2k-3)(k^2 - m^2))), all orders at once
    (order m takes l - m steps)."""
    x, s = np.cos(theta), np.sin(theta)
    ms = np.arange(1, l + 1, dtype=float)[:, None]
    seeds = np.cumprod(np.vstack([np.full((1, theta.size), np.sqrt(0.25 / np.pi)),
                                  -np.sqrt((2.0 * ms + 1.0) / (2.0 * ms)) * s]), axis=0)
    if l == 0:
        return seeds
    # a and b of every step k = 2..l (rows) and order m (columns); orders
    # m > k - 2 take no step k, so they are clipped to finite dummies
    k = np.arange(2, l + 1, dtype=float)[:, None]
    m = np.minimum(np.arange(l, dtype=float)[None, :], k - 2.0)
    a = np.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))[:, :, None]
    b = np.sqrt((2.0 * k + 1.0) * (k - 1.0 - m) * (k - 1.0 + m)
                / ((2.0 * k - 3.0) * (k * k - m * m)))[:, :, None]
    prev = seeds[:l].copy()                                    # degree m
    cur = np.sqrt(2.0 * np.arange(l)[:, None] + 3.0) * x * prev  # degree m + 1
    for j in range(1, l):
        # orders m < j reach degree j + 1
        step = a[j - 1, :j] * x * cur[:j] - b[j - 1, :j] * prev[:j]
        prev[:j] = cur[:j]
        cur[:j] = step
    return np.vstack([cur, seeds[l:]])


def _sphere_level_basis_values(l: int, radius: float, points: np.ndarray) -> np.ndarray:
    """Real orthonormal basis values for one sphere level at unit-sphere
    scaled points; shape (2l+1, N).  Ordering: m = 0, then (cos, sin) pairs
    for m = 1..l."""
    pts = np.atleast_2d(points) / radius
    theta = np.arccos(np.clip(pts[:, 2], -1.0, 1.0))
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    pbar = _sphere_legendre_rows(l, theta)
    rows = [pbar[0]]
    for m in range(1, l + 1):
        rows.append(np.sqrt(2.0) * pbar[m] * np.cos(m * phi))
        rows.append(np.sqrt(2.0) * pbar[m] * np.sin(m * phi))
    return np.vstack(rows) / radius


@dataclass(eq=False)
class RandomWaveEnsemble:
    """Seeded Gaussian ensemble over the window (lam, lam + width]."""

    manifold: ModelManifold
    lam: float
    width: float = 1.0
    seed: int = 0
    num_samples: int = 1

    def __post_init__(self):
        if self.lam <= 0.0 or self.width <= 0.0:
            raise DomainError("need lam > 0 and width > 0")
        if self.num_samples < 1:
            raise DomainError("num_samples must be >= 1")

    @property
    def normalization(self) -> float:
        n = self.manifold.dim
        return self.lam ** ((1 - n) / 2.0)

    @functools.cached_property
    def _modes(self):
        """Torus: the canonical half of the window's dual points (first
        nonzero coefficient positive), each giving a cos/sin pair; sphere:
        the window's degrees."""
        win = spectral_window(self.manifold, self.lam, self.lam + self.width)
        if win.roots.size == 0:
            raise DomainError("spectral window (%g, %g] holds no modes"
                              % (self.lam, self.lam + self.width))
        if isinstance(self.manifold, FlatTorus):
            c = win.coeffs
            first_nonzero = c[np.arange(c.shape[0]), np.argmax(c != 0, axis=1)]
            return "torus", win.vectors[first_nonzero > 0]
        return "sphere", win.degrees.tolist()

    @property
    def mode_count(self) -> int:
        kind, data = self._modes
        if kind == "torus":
            return 2 * data.shape[0]
        return sum(2 * l + 1 for l in data)

    def mode_values(self, points) -> np.ndarray:
        """Orthonormal eigenfunction values, shape (mode_count, n_points).
        Torus ordering: (cos, sin) per canonical dual point; sphere: levels
        ascending, m-blocks as in the level basis."""
        kind, data = self._modes
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if kind == "torus":
            covol = self.manifold.lattice.covolume
            phases = data @ pts.T
            amp = np.sqrt(2.0 / covol)
            vals = np.empty((2 * data.shape[0], pts.shape[0]))
            vals[0::2] = amp * np.cos(phases)
            vals[1::2] = amp * np.sin(phases)
            return vals
        blocks = [_sphere_level_basis_values(l, self.manifold.radius, pts) for l in data]
        return np.vstack(blocks)

    def coefficients(self, sample_indices) -> np.ndarray:
        """Gaussian coefficients of the given samples, shape
        (len(sample_indices), mode_count)."""
        idx = np.asarray(sample_indices, dtype=np.int64)
        if np.any(idx < 0) or np.any(idx >= self.num_samples):
            raise DomainError("sample index out of range")
        return gaussian_matrix(self.seed, idx, self.mode_count)


# coefficient rows drawn per block of a wave grid: four of the generator's
# blocks, so its temporaries are reused from the heap between blocks (with
# one generator block per wave block, the allocator returned and refaulted
# them every block: ~10^4 minor page faults per 1500-sample covariance)
_WAVE_BLOCK_VALUES = 4 * BLOCK_VALUES


def sample_wave_grid(ens: RandomWaveEnsemble, sample_indices, points) -> np.ndarray:
    """Wave samples on a point grid, shape (n_samples, n_points);
    sample_indices=None takes every sample.  Coefficients are drawn and
    multiplied out in row blocks of about _WAVE_BLOCK_VALUES draws, so the
    whole (samples, modes) matrix is never held; each draw is made once."""
    idx = (np.arange(ens.num_samples) if sample_indices is None
           else np.asarray(sample_indices).reshape(-1))
    phi = ens.mode_values(points)
    rows = max(1, _WAVE_BLOCK_VALUES // ens.mode_count)
    waves = np.empty((idx.size, phi.shape[1]))
    for start in range(0, idx.size, rows):
        waves[start:start + rows] = ens.coefficients(idx[start:start + rows]) @ phi
    return ens.normalization * waves


def exact_covariance(ens: RandomWaveEnsemble, x, y):
    """lam^{1-n} * cluster kernel over the window (the covariance of the
    Gaussian field by construction).  x and y are points or (P, dim) point
    arrays as in `cluster_kernel`, which enumerates the window once."""
    n = ens.manifold.dim
    return ens.lam ** (1 - n) * cluster_kernel(ens.manifold, ens.lam, ens.width, x, y)


def empirical_covariance(ens: RandomWaveEnsemble, x, y):
    """Monte Carlo mean of psi(x) psi(y) with its standard error.

    x and y are points or (P, dim) point arrays as in `exact_covariance`;
    every pair takes its waves from one `sample_wave_grid` call over the
    distinct points, and with arrays the mean and standard error are arrays
    of length P.
    """
    if ens.num_samples < 2:
        raise PreconditionError("need num_samples >= 2 for a standard error")
    xs, ys, many = point_pairs(x, y)
    points, index = np.unique(np.vstack([xs, ys]), axis=0, return_inverse=True)
    waves = sample_wave_grid(ens, None, points)
    # one contiguous row of sample products per pair
    prod = np.ascontiguousarray((waves[:, index[:len(xs)]] * waves[:, index[len(xs):]]).T)
    mean = np.mean(prod, axis=1)
    std_err = np.std(prod, axis=1, ddof=1) / np.sqrt(prod.shape[1])
    if not many:
        return float(mean[0]), float(std_err[0])
    return mean, std_err


def default_rescaling_radius(lam: float) -> float:
    """Largest |u| admitted in rescaled coordinates: sqrt(lam / log lam),
    defined for lam > 1 only (DomainError otherwise)."""
    if not lam > 1.0:
        raise DomainError("the rescaling radius sqrt(lam/log lam) needs lam > 1, got %g" % lam)
    return float(np.sqrt(lam / np.log(lam)))


def rescaled_covariance_error(ens: RandomWaveEnsemble, x0, u, v):
    """Exact rescaled covariance at exp_{x0}(u/lam), exp_{x0}(v/lam) against
    the universal Bessel limit; returns (exact_rescaled, universal, abs_error).

    u and v are vectors or (S, dim) arrays of them (one vector pairs with
    every row of the other); with arrays the three results are arrays of
    length S from one `exact_covariance` call.  |u|, |v| must stay within
    the admissible rescaling radius sqrt(lam/log lam), mirroring
    the covariance-convergence constraint.
    """
    if not isinstance(ens.manifold, FlatTorus):
        raise DomainError("rescaled coordinates are implemented on flat tori")
    n = ens.manifold.dim
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    r_lam = default_rescaling_radius(ens.lam)
    for name, vecs in (("u", u), ("v", v)):
        norms = row_norms(np.atleast_2d(vecs))
        if np.any(norms > r_lam):
            raise PreconditionError(
                "|%s| = %.6g exceeds the rescaling radius %.6g (the covariance "
                "scaling limit holds for |u|,|v| = O(sqrt(lam/log lam)))"
                % (name, norms[norms > r_lam][0], r_lam))
    x0 = np.asarray(x0, dtype=float)
    x = x0 + u / ens.lam
    y = x0 + v / ens.lam
    exact_rescaled = exact_covariance(ens, x, y)
    universal = universal_covariance(n, row_norms(u - v))
    return exact_rescaled, universal, abs(exact_rescaled - universal)
