"""Period-lattice geometry for flat tori.

Conventions: the lattice basis holds period vectors as columns; the dual
basis satisfies <b_i, b*_j> = 2 pi delta_ij, so torus eigenfunctions are
e^{i<k,x>} with k a dual point and eigenvalue |k|^2.  Enumeration works slab
by slab: fixing every coefficient but the last, the ball meets the slab in
an integer interval read off the quadratic form and settled on the exact
row norms; the slabs come from a coefficient bounding box derived from
operator norms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CutLocusError, DomainError, ResourceLimitError

# the one size limit of every enumeration and table; `check_cap` reads it
ENUM_CAP = 10**8

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


def check_cap(count, what: str):
    """ResourceLimitError when `count` exceeds ENUM_CAP (read at call
    time), to be called before anything of that size is allocated; `what`
    says what `count` counts and opens the message.  A float count that
    is inf or nan (a size overflowed) is refused too."""
    if not count <= ENUM_CAP:
        raise ResourceLimitError("%s, exceeding the cap %d" % (what, ENUM_CAP))


def coefficient_box(generator_matrix: np.ndarray, radius: float) -> np.ndarray:
    """Per-coordinate integer bounds M_i with |c_i| <= M_i for all lattice
    points |G c| <= radius (rows of G^{-1} give the exact sup).

    The bounds are floats, inf where they overflow: a caller checks the
    `box_size` of the box against the cap before casting them to int, so a
    huge radius is refused rather than wrapped to a negative bound."""
    row_norms = np.linalg.norm(np.linalg.inv(generator_matrix), axis=1)
    with np.errstate(over="ignore"):
        return np.floor(radius * row_norms + 1e-9)


def box_size(bounds) -> float:
    """prod(2 M_i + 1), the point count of the box |c_i| <= M_i, as a float
    (inf where it overflows)."""
    with np.errstate(over="ignore"):
        return float(np.prod(2.0 * np.asarray(bounds) + 1.0))


def slab_prefixes(generator_matrix: np.ndarray, radius: float) -> np.ndarray:
    """The coefficient slabs that can meet the ball |G c| <= radius.

    A slab fixes every coefficient but the last; the result holds one row
    of leading coefficients per slab, (S, d-1), in lexicographic order.
    Their count is checked against the cap before anything is allocated.
    """
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    box = coefficient_box(generator_matrix, radius)[:-1]
    total = box_size(box)
    check_cap(total, "the ball of radius %.6g meets %.12g coefficient slabs" % (radius, total))
    grids = np.meshgrid(*[np.arange(-m, m + 1) for m in box.astype(np.int64)], indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def slab_row_norms(generator_matrix: np.ndarray, prefixes: np.ndarray, last,
                   steps=(0,)) -> np.ndarray:
    """|G c| for c = (prefix, last + step) per slab and step, a
    (len(steps), S) array, computed exactly as the enumeration computes its
    norms, so the two agree bit for bit.  One coefficient array serves
    every step."""
    coeffs = np.empty((prefixes.shape[0], prefixes.shape[1] + 1), dtype=np.int64)
    coeffs[:, :-1] = prefixes
    norms = np.empty((len(steps), prefixes.shape[0]))
    for out, step in zip(norms, steps):
        np.add(last, step, out=coeffs[:, -1])
        out[:] = np.linalg.norm(coeffs @ generator_matrix.T, axis=1)
    return norms


def slab_form(generator_matrix: np.ndarray, prefixes: np.ndarray):
    """The prefix-only terms of |G (prefix, t)|^2 = q t^2 + 2 cross t + const
    per slab, as (q, const, vertex) with vertex = -cross / q.  They do not
    depend on the threshold, so one form serves every `slab_ends` call on
    the same prefixes."""
    q_form = generator_matrix.T @ generator_matrix
    q = q_form[-1, -1]
    cross = prefixes @ q_form[:-1, -1]
    const = np.einsum("si,ij,sj->s", prefixes, q_form[:-1, :-1], prefixes)
    return q, const, -cross / q


def slab_ends(generator_matrix: np.ndarray, prefixes: np.ndarray, threshold: float,
              form=None):
    """Per slab, the last coefficients t with |G (prefix, t)| <= threshold:
    the integer interval [a, b], as two int arrays, and the distance from
    threshold to the nearest norm among the rows a - 1, a, b and b + 1 of
    every slab, which by convexity is the nearest norm of any row.

    The quadratic form in t gives the ends up to rounding; each end is then
    settled among its neighbours by `slab_row_norms`, so membership is
    exactly that of the enumeration (a row on the threshold is in, one an
    ulp above is out).  An empty slab has b = a - 1 = floor(vertex), so
    a - 1 and b + 1 are the rows nearest the parabola's vertex.  The
    distance reads the settled candidates' norms.  `form` is the prefixes'
    `slab_form`, computed here when not given; a caller with many
    thresholds passes it once computed.
    """
    q, const, vertex = slab_form(generator_matrix, prefixes) if form is None else form
    half = np.sqrt(np.maximum(vertex**2 - (const - threshold**2) / q, 0.0))
    lo = np.ceil(vertex - half).astype(np.int64)
    hi = np.floor(vertex + half).astype(np.int64)
    del const, half  # freed before the row norms, which set the peak memory
    # the true ends are within one step of the rounded ones
    lo_norms = slab_row_norms(generator_matrix, prefixes, lo, (1, 0, -1))
    hi_norms = slab_row_norms(generator_matrix, prefixes, hi, (-1, 0, 1))
    a = np.full(prefixes.shape[0], np.iinfo(np.int64).max)
    b = np.full(prefixes.shape[0], np.iinfo(np.int64).min)
    for j, step in enumerate((1, 0, -1)):
        a = np.where(lo_norms[j] <= threshold, lo + step, a)
        b = np.where(hi_norms[j] <= threshold, hi - step, b)
    empty = a > b
    b[empty] = np.floor(vertex[empty]).astype(np.int64)
    a[empty] = b[empty] + 1
    # rows a - 1 and a are read off the lo-side candidates, b and b + 1 off
    # the hi-side ones.  A row that is not a candidate lies a step beyond an
    # end that rounding put next to the threshold, so it is never the
    # nearest and is skipped.
    slabs = np.arange(prefixes.shape[0])
    gap = np.inf
    for end, shift, lo_side in ((a, -1, True), (a, 0, True), (b, 0, False), (b, 1, False)):
        index = lo + 1 - (end + shift) if lo_side else end + shift - hi + 1
        found = (index >= 0) & (index <= 2)
        norms = (lo_norms if lo_side else hi_norms)[index[found], slabs[found]]
        gap = min(gap, float(np.min(np.abs(norms - threshold), initial=np.inf)))
    return a, b, gap


def slab_runs(ends, inner_ends=None):
    """The rows of each slab inside the ball given by `ends` (the result of
    `slab_ends`) and, with `inner_ends`, outside that inner ball: runs of
    consecutive last coefficients, one per slab or two either side of the
    inner ball.  Returns (slab, start, stop) int arrays of the nonempty
    runs, in slab order and ascending within a slab (lexicographic order
    of the rows)."""
    a, b = ends[:2]
    if inner_ends is None:
        starts, stops = a[:, None], b[:, None]
    else:
        a_in, b_in = inner_ends[:2]
        starts = np.stack([a, b_in + 1], axis=1)
        stops = np.stack([a_in - 1, b], axis=1)
    slab = np.repeat(np.arange(a.size), starts.shape[1])
    starts, stops = starts.ravel(), stops.ravel()
    keep = stops >= starts
    return slab[keep], starts[keep], stops[keep]


def _lattice_vectors(generator_matrix: np.ndarray, radius: float, inner: float = -1.0):
    """All integer-combination vectors inner < |G c| <= radius, with
    coefficients.

    Returns (coeffs (N,d) int array, vectors (N,d), norms (N,)), sorted by
    (norm, lexicographic coeffs).  Rows are generated slab by slab in
    lexicographic order and stably sorted by norm; the cap bounds the row
    count before the rows are allocated.
    """
    # the cells c + {sum t_i g_i : t in [0,1)^d} of the points c of a ball
    # of radius r cover the ball of radius r - D and lie in that of radius
    # r + D, D = sum |g_i|; so the row count has a lower bound that refuses
    # a far oversized request before any slab is built (in floating point,
    # where a huge radius gives inf rather than an OverflowError)
    d = generator_matrix.shape[0]
    reach = np.sum(np.linalg.norm(generator_matrix, axis=0))
    with np.errstate(over="ignore", invalid="ignore"):
        volume = max(radius - reach, 0.0) ** d - (inner + reach) ** d * (inner >= 0.0)
        lower = (np.pi ** (d / 2) / math.gamma(d / 2 + 1) * volume
                 / abs(np.linalg.det(generator_matrix)))
    check_cap(lower, "enumeration holds at least %.4g lattice points" % lower)
    prefixes = slab_prefixes(generator_matrix, radius)
    form = slab_form(generator_matrix, prefixes)
    slab, starts, stops = slab_runs(
        slab_ends(generator_matrix, prefixes, radius * (1.0 + 1e-15), form),
        slab_ends(generator_matrix, prefixes, inner, form) if inner >= 0.0 else None)
    counts = stops - starts + 1
    total = int(counts.sum())
    check_cap(total, "enumeration holds %d lattice points" % total)
    run = np.repeat(np.arange(counts.size), counts)
    last = starts[run] + np.arange(total) - (np.cumsum(counts) - counts)[run]
    coeffs = np.column_stack([prefixes[slab[run]], last])
    vectors = coeffs @ generator_matrix.T
    norms = np.linalg.norm(vectors, axis=1)
    order = np.argsort(norms, kind="stable")
    return coeffs[order], vectors[order], norms[order]


def dual_vectors(lattice: Lattice, radius: float, inner: float = -1.0):
    """All dual-lattice points with inner < norm <= radius as arrays
    (coeffs, vectors, norms), sorted by (norm, lexicographic coeffs).  The
    default inner radius takes the whole ball."""
    return _lattice_vectors(lattice.dual_basis, radius, inner)


def injectivity_radius(lattice: Lattice) -> float:
    """Half the length of the shortest nonzero period vector."""
    probe = float(np.min(np.linalg.norm(lattice.basis, axis=0)))
    _, _, norms = _lattice_vectors(lattice.basis, probe)
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


def deck_images(lattice: Lattice, x, y, radius: float):
    """All vectors w = (y - x) + gamma with gamma a period vector and
    |w| <= radius, sorted by (norm, lexicographic image coordinates).

    x and y are points, giving one (K, dim) array, or (P, dim) arrays of
    points (a single point pairs with every row of the other), giving a
    list of P such arrays from one enumeration of the period lattice; each
    equals the array of a call with that pair alone.
    """
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    many = x.ndim == 2 or y.ndim == 2
    diffs = np.atleast_2d(y - x)
    # |gamma| <= radius + |diff| covers every admissible image
    reach = radius + float(np.max(np.linalg.norm(diffs, axis=1), initial=0.0))
    _, gammas, _ = _lattice_vectors(lattice.basis, reach)
    out = []
    for diff in diffs:
        images = diff + gammas
        norms = np.linalg.norm(images, axis=1)
        keep = norms <= radius * (1.0 + 1e-15)
        images, norms = images[keep], norms[keep]
        order = np.lexsort(
            tuple(images[:, j] for j in range(images.shape[1] - 1, -1, -1)) + (norms,))
        out.append(images[order])
    return out if many else out[0]
