"""Period-lattice geometry for flat tori.

Conventions: the lattice basis holds period vectors as columns; the dual
basis satisfies <b_i, b*_j> = 2 pi delta_ij, so torus eigenfunctions are
e^{i<k,x>} with k a dual point and eigenvalue |k|^2.  Every lattice search
(dual balls and shells, deck images, `torus_log`'s period ball) walks
slabs: fixing every coefficient but the last, the ball meets the slab in
an integer interval read off the quadratic form and settled on the exact
row norms; the slabs come from a coefficient bounding box derived from
operator norms; `slab_windows`, the one entry point of that settle, turns
windows (lo, hi] into runs of rows.  Rows come in walk order,
lexicographic in the coefficients; a caller that needs them by norm sorts
them itself.  Dual enumerations hold only the canonical half, the
coefficients that are lexicographically >= 0; the period-ball walks take
whole balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CutLocusError, DomainError, ResourceLimitError

# the one size limit of every enumeration and table; `check_cap` reads it
ENUM_CAP = 10**8

# tie tolerance for cut-locus detection
NORM_TIE_TOL = 1e-9

# lambda must stay this far from the spectrum (avoids half-counting
# ambiguity); an absolute distance, unlike the relative tie rule of eigenlevels
ON_SPECTRUM_TOL = 1e-9


@dataclass(frozen=True)
class Lattice:
    """An n-dimensional period lattice with its dual (n in {2, 3}), all
    derived from `basis`, whose columns are period vectors."""

    basis: np.ndarray
    dim: int = field(init=False)
    # columns are dual generators, <b_i, b*_j> = 2 pi delta_ij
    dual_basis: np.ndarray = field(init=False)
    covolume: float = field(init=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise DomainError("basis must be a square matrix")
        if b.shape[0] not in (2, 3):
            raise DomainError("lattice dim must be 2 or 3, got %r" % (b.shape[0],))
        det = np.linalg.det(b)
        if abs(det) < 1e-12:
            raise DomainError("basis is singular")
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "dim", b.shape[0])
        object.__setattr__(self, "dual_basis", 2.0 * np.pi * np.linalg.inv(b).T)
        object.__setattr__(self, "covolume", float(abs(det)))

    @classmethod
    def from_basis(cls, basis) -> "Lattice":
        return cls(basis)

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


def _column_sum_norms(vectors: np.ndarray) -> np.ndarray:
    """|v| per row of an (N, d) array: the squares of the columns added
    left to right, then sqrt.  np.linalg.norm(axis=1) adds the squares of a
    row in that same order, so the two agree bit for bit (inf where a
    square overflows, as there), without its (N, d) array of squares."""
    total = np.square(vectors[:, 0])
    square = np.empty_like(total)
    for j in range(1, vectors.shape[1]):
        total += np.square(vectors[:, j], out=square)
    return np.sqrt(total, out=total)


def slab_row_norms(generator_matrix: np.ndarray, prefixes: np.ndarray, last,
                   steps=(0,)) -> np.ndarray:
    """|G c| for c = (prefix, last + step) per slab and step, a
    (len(steps), S) array, computed exactly as the enumeration computes its
    norms (the same matrix product and `_column_sum_norms`), so the two
    agree bit for bit.  One float coefficient array (exact below 2^53; an
    int64 one is cast in slow buffered chunks) serves every step."""
    coeffs = np.empty((prefixes.shape[0], prefixes.shape[1] + 1))
    coeffs[:, :-1] = prefixes
    norms = np.empty((len(steps), prefixes.shape[0]))
    for out, step in zip(norms, steps):
        np.add(last, step, out=coeffs[:, -1])
        out[:] = _column_sum_norms(coeffs @ generator_matrix.T)
    return norms


def _slab_form(generator_matrix: np.ndarray, prefixes: np.ndarray):
    """The prefix-only terms of |G (prefix, t)|^2 = q t^2 + 2 cross t + const
    per slab, as (q, const, vertex) with vertex = -cross / q.  They do not
    depend on the threshold, so one form serves every `_slab_ends` call on
    the same prefixes."""
    q_form = generator_matrix.T @ generator_matrix
    q = q_form[-1, -1]
    cross = prefixes @ q_form[:-1, -1]
    const = np.einsum("si,ij,sj->s", prefixes, q_form[:-1, :-1], prefixes)
    return q, const, -cross / q


def _slab_ends(generator_matrix: np.ndarray, prefixes: np.ndarray, threshold: float, form):
    """Per slab, the last coefficients t with |G (prefix, t)| <= threshold:
    the integer interval [a, b], as two int arrays, and the distance from
    threshold to the nearest row norm, exact wherever it is below
    ON_SPECTRUM_TOL (elsewhere it may be larger).  `form` is the prefixes'
    `_slab_form`.

    Only the slabs whose line passes within threshold + ON_SPECTRUM_TOL are
    settled (on the line |G (prefix, t)|^2 >= const - q vertex^2, taken with
    a margin of 1e-9 of its terms' size); the others are empty, with
    b = a - 1 = floor(vertex) as every empty slab.  A settled slab's ends
    come from the quadratic form up to rounding and are settled among their
    neighbours by `slab_row_norms`, so membership is exactly that of the
    enumeration.  The gap is the least distance over those six candidate
    rows: by convexity the nearest norm is among the rows a - 1, a, b and
    b + 1, and each of them is a candidate or lies a step beyond an end
    that rounding put next to the threshold, so is never the nearest.
    """
    q, const, vertex = form
    reach2 = (threshold + ON_SPECTRUM_TOL) ** 2
    near = np.flatnonzero(const - q * vertex**2 <= reach2 + 1e-9 * (const + reach2))
    ends_a = np.floor(vertex).astype(np.int64) + 1
    ends_b = ends_a - 1
    prefixes, const, vertex = prefixes[near], const[near], vertex[near]
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
    gap = min(float(np.min(np.abs(norms - threshold), initial=np.inf))
              for norms in (lo_norms, hi_norms))
    ends_a[near], ends_b[near] = a, b
    return ends_a, ends_b, gap


def slab_windows(generator_matrix: np.ndarray, prefixes: np.ndarray, lows, highs):
    """The runs of every window lows[i] < |G c| <= highs[i] (a low below 0
    takes the whole ball) on the slabs of `prefixes`, and an (L,) array of
    each high's distance to the nearest row norm, exact below
    ON_SPECTRUM_TOL (the on-spectrum guard's).  A window's runs are
    (slab, start, stop) int arrays of consecutive last coefficients, one
    run per slab or two either side of the inner ball, in lexicographic
    row order.  The slab form is built once and each window end settled
    alone by `_slab_ends`, so a window does not depend on the others."""
    form = _slab_form(generator_matrix, prefixes)
    windows, gaps = [], np.empty(len(highs))
    for i, (low, high) in enumerate(zip(lows, highs)):
        a, b, gaps[i] = _slab_ends(generator_matrix, prefixes, high, form)
        # only the slabs with rows in the ball can hold runs
        slabs = np.flatnonzero(b >= a)
        if low < 0.0:
            windows.append((slabs, a[slabs], b[slabs]))
            continue
        a_in, b_in, _ = _slab_ends(generator_matrix, prefixes, low, form)
        starts = np.stack([a[slabs], b_in[slabs] + 1], axis=1).ravel()
        stops = np.stack([a_in[slabs] - 1, b[slabs]], axis=1).ravel()
        keep = stops >= starts
        windows.append((np.repeat(slabs, 2)[keep], starts[keep], stops[keep]))
    return windows, gaps


def _lattice_vectors(generator_matrix: np.ndarray, radius: float, inner: float = -1.0,
                     half: bool = False):
    """All integer-combination vectors inner < |G c| <= radius, with
    coefficients; with `half`, only those of the canonical half c >= 0 in
    lexicographic order (the origin and one of each pair c, -c).

    Returns (coeffs (N,d) int array, vectors (N,d), norms (N,)) in walk
    order: slab by slab, ascending within a slab, which is lexicographic
    coefficient order.  The cap bounds the row count before the rows are
    allocated.  The coefficients are written column by column into one
    int64 array, in integers, so exactly; the norms are
    `_column_sum_norms`, bit for bit np.linalg.norm(axis=1) of the vectors.

    The half keeps the slabs whose prefix is lexicographically positive and
    the zero-prefix slab from last coefficient 0 upward: its result is the
    subsequence of the full call's rows that lie in the half, with the same
    bits.
    """
    # the cells c + {sum t_i g_i : t in [0,1)^d} of the points c of a ball
    # of radius r cover the ball of radius r - D and lie in that of radius
    # r + D, D = sum |g_i|; so the row count has a lower bound that refuses
    # a far oversized request before any slab is built (in floating point,
    # where a huge radius gives inf rather than an OverflowError); the half
    # holds at least half of them
    d = generator_matrix.shape[0]
    reach = np.sum(np.linalg.norm(generator_matrix, axis=0))
    with np.errstate(over="ignore", invalid="ignore"):
        volume = max(radius - reach, 0.0) ** d - (inner + reach) ** d * (inner >= 0.0)
        lower = (np.pi ** (d / 2) / math.gamma(d / 2 + 1) * volume
                 / abs(np.linalg.det(generator_matrix))) * (0.5 if half else 1.0)
    check_cap(lower, "enumeration holds at least %.4g lattice points" % lower)
    prefixes = slab_prefixes(generator_matrix, radius)
    if half:
        # the prefix box is symmetric and in lexicographic order, so p and
        # -p sit mirrored about the zero prefix in the middle
        prefixes = prefixes[prefixes.shape[0] // 2:]
    windows, _ = slab_windows(generator_matrix, prefixes, [inner], [radius * (1.0 + 1e-15)])
    slab, starts, stops = windows[0]
    if half:
        # the zero slab (the first) keeps its last coefficients from 0 upward
        starts[slab == 0] = np.maximum(starts[slab == 0], 0)
        keep = stops >= starts
        slab, starts, stops = slab[keep], starts[keep], stops[keep]
    counts = stops - starts + 1
    total = int(counts.sum())
    check_cap(total, "enumeration holds %d lattice points" % total)
    coeffs = np.empty((total, d), dtype=np.int64)
    for j in range(d - 1):
        coeffs[:, j] = np.repeat(prefixes[slab, j], counts)
    # a run's last coefficients count up from its start: row i of the run
    # that begins at row offset holds start + (i - offset)
    coeffs[:, -1] = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    coeffs[:, -1] += np.arange(total)
    vectors = coeffs @ generator_matrix.T
    return coeffs, vectors, _column_sum_norms(vectors)


def dual_vectors(lattice: Lattice, radius: float, inner: float = -1.0):
    """The canonical half of the dual-lattice points with
    inner < norm <= radius: the points whose coefficients are
    lexicographically >= 0, so the origin and one of each pair k, -k, as
    arrays (coeffs, vectors, norms) in lexicographic coefficient order.
    The default inner radius takes the whole ball.  k and -k have norms of
    the same bits, and every use of the dual lattice in this package (real
    kernels, cos/sin mode pairs, weights W[c] = W[-c]) counts them
    together."""
    return _lattice_vectors(lattice.dual_basis, radius, inner, half=True)


def injectivity_radius(lattice: Lattice) -> float:
    """Half the length of the shortest nonzero period vector."""
    probe = float(np.min(np.linalg.norm(lattice.basis, axis=0)))
    _, _, norms = _lattice_vectors(lattice.basis, probe)
    nonzero = norms[norms > 0.0]
    return float(np.min(nonzero)) / 2.0


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> over the last axis, each the dot product np.dot takes of the
    two vectors alone: a stacked (1, n) @ (n, 1) matmul makes that call per
    row, where einsum and np.linalg.norm(axis=-1) sum in another order."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_norms(a: np.ndarray) -> np.ndarray:
    """|a| over the last axis, bit for bit as np.linalg.norm takes it of one vector."""
    return np.sqrt(row_dots(a, a))


def point_pairs(x, y):
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


def torus_log(lattice: Lattice, x, y) -> np.ndarray:
    """Shortest lattice representative of y - x (the flat inverse
    exponential), for points or (P, dim) point arrays paired as in
    `point_pairs`, with the bits of per-pair calls.  Unique whenever
    d_g(x,y) < injectivity_radius; a tie within NORM_TIE_TOL raises
    CutLocusError naming the first such pair and all its tied
    representatives."""
    xs, ys, many = point_pairs(x, y)
    if xs.shape[1] != lattice.dim:
        raise DomainError("points must be %d-vectors" % lattice.dim)
    basis, diffs = lattice.basis, ys - xs
    # reduce into a neighbourhood of the origin (the stacked solves and
    # products make a single pair's LAPACK and BLAS calls per row); the
    # shortest base + gamma, and every one tied with it, has |gamma| below
    # twice the largest |base| with the tie allowance, so one walk of that
    # period ball serves every pair
    base = diffs - (basis @ np.round(np.linalg.solve(basis, diffs[:, :, None])))[:, :, 0]
    reach = float(np.max(row_norms(base), initial=0.0))
    _, gammas, _ = _lattice_vectors(basis, 2.0 * (reach * (1.0 + NORM_TIE_TOL) + NORM_TIE_TOL))
    count = len(xs) * gammas.shape[0]
    check_cap(count, "the pairs' shortest representatives have %d candidates" % count)
    candidates = base[:, None, :] + gammas
    norms = row_norms(candidates)
    best = (np.arange(len(xs)), np.argmin(norms, axis=1))
    tied = norms - norms[best][:, None] <= NORM_TIE_TOL * (1.0 + norms[best][:, None])
    on_cut = np.count_nonzero(tied, axis=1) > 1
    if on_cut.any():
        p = int(np.argmax(on_cut))
        rows = np.flatnonzero(tied[p])
        ties = list(candidates[p, rows[np.argsort(norms[p, rows], kind="stable")]])
        raise CutLocusError("shortest representative of y - x is not unique (cut locus) at "
                            "pair %d, x = %s, y = %s; tied candidates: %s"
                            % (p, xs[p], ys[p], ties), ties=ties)
    return candidates[best] if many else candidates[best][0]


def torus_distance(lattice: Lattice, x, y):
    """|torus_log(x, y)|: a float, or a (P,) array for point arrays."""
    return row_norms(torus_log(lattice, x, y))


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
    xs, ys, many = point_pairs(x, y)
    diffs = ys - xs
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
