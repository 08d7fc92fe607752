"""Period-lattice geometry for flat tori.

Conventions: the lattice basis holds period vectors as columns; the dual
basis satisfies <b_i, b*_j> = 2 pi delta_ij, so torus eigenfunctions are
e^{i<k,x>} with k a dual point and eigenvalue |k|^2.  Enumeration uses a
coefficient bounding box derived from operator norms (provable completeness
over clever pruning at desk scale).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CutLocusError, DomainError, ResourceLimitError

DEFAULT_ENUM_CAP = 10**8

# tie tolerance for cut-locus detection
NORM_TIE_TOL = 1e-9


@dataclass(frozen=True)
class Lattice:
    """An n-dimensional period lattice with its dual (n in {2, 3})."""

    dim: int
    basis: np.ndarray        # columns are period vectors
    dual_basis: np.ndarray   # columns are dual generators, <b_i, b*_j> = 2 pi delta_ij
    covolume: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise DomainError("lattice dim must be 2 or 3, got %r" % (self.dim,))
        b = np.asarray(self.basis, dtype=float)
        if b.shape != (self.dim, self.dim):
            raise DomainError("basis must be %dx%d" % (self.dim, self.dim))
        det = np.linalg.det(b)
        if abs(det) < 1e-12:
            raise DomainError("basis is singular")
        expected_dual = 2.0 * np.pi * np.linalg.inv(b).T
        if not np.allclose(self.dual_basis, expected_dual, rtol=1e-12, atol=1e-12):
            raise DomainError("dual_basis is not 2*pi*inv(basis).T")
        if not np.isclose(self.covolume, abs(det), rtol=1e-12):
            raise DomainError("covolume does not match |det basis|")

    @classmethod
    def from_basis(cls, basis) -> "Lattice":
        b = np.asarray(basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise DomainError("basis must be a square matrix")
        if abs(np.linalg.det(b)) < 1e-12:
            raise DomainError("basis is singular")
        dual = 2.0 * np.pi * np.linalg.inv(b).T
        return cls(dim=b.shape[0], basis=b, dual_basis=dual,
                   covolume=float(abs(np.linalg.det(b))))

    @classmethod
    def square(cls, period: float, dim: int = 2) -> "Lattice":
        return cls.from_basis(period * np.eye(dim))

    @classmethod
    def hexagonal(cls, shortest: float = 1.0) -> "Lattice":
        b = shortest * np.array([[1.0, 0.5], [0.0, np.sqrt(3.0) / 2.0]])
        return cls.from_basis(b)


def _coefficient_box(generator_matrix: np.ndarray, radius: float) -> np.ndarray:
    """Per-coordinate integer bounds M_i with |c_i| <= M_i for all lattice
    points |G c| <= radius (rows of G^{-1} give the exact sup)."""
    inv_rows = np.linalg.inv(generator_matrix)
    row_norms = np.linalg.norm(inv_rows, axis=1)
    return np.floor(radius * row_norms + 1e-9).astype(int)


def _lattice_vectors(generator_matrix: np.ndarray, radius: float, cap: int):
    """All integer-combination vectors |G c| <= radius, with coefficients.

    Returns (coeffs (N,d) int array, vectors (N,d), norms (N,)), sorted by
    (norm, lexicographic coeffs).  Complete by the bounding-box argument.
    """
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    box = _coefficient_box(generator_matrix, radius)
    total = int(np.prod(2 * box.astype(object) + 1))
    if total > cap:
        raise ResourceLimitError(
            "enumeration box holds %d candidates, exceeding the cap %d" % (total, cap)
        )
    axes = [np.arange(-m, m + 1) for m in box]
    grids = np.meshgrid(*axes, indexing="ij")
    coeffs = np.stack([g.ravel() for g in grids], axis=1)
    vectors = coeffs @ generator_matrix.T
    norms = np.linalg.norm(vectors, axis=1)
    keep = norms <= radius * (1.0 + 1e-15)
    coeffs, vectors, norms = coeffs[keep], vectors[keep], norms[keep]
    order = np.lexsort(tuple(coeffs[:, j] for j in range(coeffs.shape[1] - 1, -1, -1)) + (norms,))
    return coeffs[order], vectors[order], norms[order]


def dual_vectors(lattice: Lattice, radius: float, cap: int = DEFAULT_ENUM_CAP):
    """All dual-lattice points with norm <= radius as arrays (coeffs, vectors,
    norms), sorted by (norm, lexicographic coeffs)."""
    return _lattice_vectors(lattice.dual_basis, radius, cap)


def injectivity_radius(lattice: Lattice) -> float:
    """Half the length of the shortest nonzero period vector."""
    probe = float(np.min(np.linalg.norm(lattice.basis, axis=0)))
    _, _, norms = _lattice_vectors(lattice.basis, probe, DEFAULT_ENUM_CAP)
    nonzero = norms[norms > 0.0]
    return float(np.min(nonzero)) / 2.0


def torus_log(lattice: Lattice, x, y) -> np.ndarray:
    """Shortest lattice representative of y - x (the flat inverse exponential).

    Unique whenever d_g(x,y) < injectivity_radius; a tie within NORM_TIE_TOL
    raises CutLocusError listing the tied representatives.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (lattice.dim,) or y.shape != (lattice.dim,):
        raise DomainError("points must be %d-vectors" % lattice.dim)
    diff = y - x
    # reduce into a neighborhood of the origin, then search a provably
    # sufficient coefficient box around the reduced representative
    base = diff - lattice.basis @ np.round(np.linalg.solve(lattice.basis, diff))
    sigma_min = np.linalg.svd(lattice.basis, compute_uv=False)[-1]
    reach = int(np.ceil(2.0 * np.linalg.norm(base) / sigma_min)) + 1
    best = None
    candidates = []
    for c in itertools.product(range(-reach, reach + 1), repeat=lattice.dim):
        w = base + lattice.basis @ np.asarray(c, dtype=float)
        candidates.append((float(np.linalg.norm(w)), w))
    candidates.sort(key=lambda t: t[0])
    best_norm, best = candidates[0]
    ties = [w for n, w in candidates[1:4]
            if n - best_norm <= NORM_TIE_TOL * (1.0 + best_norm)
            and np.linalg.norm(w - best) > 1e-12]
    if ties:
        raise CutLocusError(
            "shortest representative of y - x is not unique (cut locus); "
            "tied candidates: %s" % ([best] + ties),
            ties=[best] + ties,
        )
    return best


def torus_distance(lattice: Lattice, x, y) -> float:
    return float(np.linalg.norm(torus_log(lattice, x, y)))


def deck_images(lattice: Lattice, x, y, radius: float,
                cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
    """All vectors w = (y - x) + gamma with gamma a period vector and
    |w| <= radius, sorted by (norm, lexicographic image coordinates)."""
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = y - x
    # |gamma| <= radius + |diff| covers every admissible image
    _, gammas, _ = _lattice_vectors(lattice.basis, radius + float(np.linalg.norm(diff)), cap)
    images = diff + gammas
    norms = np.linalg.norm(images, axis=1)
    keep = norms <= radius * (1.0 + 1e-15)
    images, norms = images[keep], norms[keep]
    order = np.lexsort(
        tuple(images[:, j] for j in range(images.shape[1] - 1, -1, -1)) + (norms,))
    return images[order]
