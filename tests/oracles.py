"""Slow reference paths kept for the tests: the bounding-box dual-lattice
enumerator and the materialised torus mode sum that the slab-wise code
replaced, the settle of every slab that `slab_ends` narrowed to the slabs
near its threshold, the per-level sphere loop, the per-point Weyl leading
term and Bessel prediction with the per-pair candidate search of
`torus_log`, its coefficient-box array search that the period-ball walk
replaced, the cell-by-cell CSV writer, the smoothed projector's per-mode
spectral sum, its weight box filled from whole balls (the half-ball fill
replaced it) and its images side on a radial rule of any panel width,
with the clamped width the band-limit rule replaced, a projector with a
stretched spectral tail, the J-table quadrature in one block, the J
panels' Clenshaw recurrence with one gather per step, the J sub-panels'
polynomials from numpy's Chebyshev derivatives, and `bessel_ratio` with
its recurrence run on the radii the series serves too."""

import copy
import itertools

import numpy as np
from numpy.polynomial import chebyshev

from weyl_lab.errors import DomainError
from weyl_lab.lattice import check_cap, point_pairs, row_norms, slab_form, slab_row_norms
from weyl_lab.specfun import (RADIAL_SERIES_SWITCH, _order, _ratio_series, _ratio_upward,
                              bessel_ratio)


def box_lattice_vectors(generator_matrix, radius):
    """All |G c| <= radius (with a 1e-15 relative slack) from the full
    coefficient bounding box, sorted by (norm, lexicographic coeffs):
    (coeffs, vectors, norms)."""
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    inv_rows = np.linalg.inv(generator_matrix)
    box = np.floor(radius * np.linalg.norm(inv_rows, axis=1) + 1e-9).astype(int)
    total = int(np.prod(2 * box.astype(object) + 1))
    check_cap(total, "box holds %d candidates" % total)
    grids = np.meshgrid(*[np.arange(-m, m + 1) for m in box], indexing="ij")
    coeffs = np.stack([g.ravel() for g in grids], axis=1)
    vectors = coeffs @ generator_matrix.T
    norms = np.linalg.norm(vectors, axis=1)
    keep = norms <= radius * (1.0 + 1e-15)
    coeffs, vectors, norms = coeffs[keep], vectors[keep], norms[keep]
    order = np.lexsort(tuple(coeffs[:, j] for j in range(coeffs.shape[1] - 1, -1, -1))
                       + (norms,))
    return coeffs[order], vectors[order], norms[order]


def full_slab_ends(generator_matrix, prefixes, threshold, form=None):
    """`lattice.slab_ends` settled on every slab: (a, b, gap) with the ends
    of each slab and the exact distance from threshold to the nearest row
    norm, read off the rows a - 1, a, b and b + 1 of every slab."""
    q, const, vertex = slab_form(generator_matrix, prefixes) if form is None else form
    half = np.sqrt(np.maximum(vertex**2 - (const - threshold**2) / q, 0.0))
    lo = np.ceil(vertex - half).astype(np.int64)
    hi = np.floor(vertex + half).astype(np.int64)
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
    slabs = np.arange(prefixes.shape[0])
    gap = np.inf
    for end, shift, lo_side in ((a, -1, True), (a, 0, True), (b, 0, False), (b, 1, False)):
        index = lo + 1 - (end + shift) if lo_side else end + shift - hi + 1
        found = (index >= 0) & (index <= 2)
        norms = (lo_norms if lo_side else hi_norms)[index[found], slabs[found]]
        gap = min(gap, float(np.min(np.abs(norms - threshold), initial=np.inf)))
    return a, b, gap


def materialised_window_sum(m, lo, hi, x, y, d):
    """The torus mode sum of d_x^alpha d_y^beta phi_k(x) phi_k(y) over the
    dual points with lo < |k| <= hi, term by term, and the sum of the
    terms' moduli (the scale its rounding error is measured against)."""
    _, vectors, norms = box_lattice_vectors(m.lattice.dual_basis, hi)
    vectors = vectors[(norms > lo) & (norms <= hi)]
    alpha, beta = d.padded(m.dim)
    mono = np.ones(vectors.shape[0])
    for j, (a, b) in enumerate(zip(alpha, beta)):
        mono = mono * vectors[:, j] ** (a + b)
    factor = (-1.0) ** sum(alpha) * 1j ** (sum(alpha) + sum(beta)) * mono
    phases = vectors @ (np.asarray(y, dtype=float) - np.asarray(x, dtype=float))
    value = float(np.real(np.sum(factor * np.exp(1j * phases)))) / m.lattice.covolume
    return value, float(np.sum(np.abs(mono))) / m.lattice.covolume


def record_passes(monkeypatch, dual_basis):
    """The dual-lattice passes made while `monkeypatch` is active:
    "dual_vectors" lists the radii of the enumerations, "slabs" the radius
    of every `slab_prefixes` call on `dual_basis` (each slab-wise kernel or
    count pass, and each enumeration, which runs on slabs too), and
    "settles" the (threshold, slab count) of every `slab_ends` call on
    `dual_basis`: how many slabs each window end settles, counted as the
    slabs its `slab_row_norms` calls take.  Callers assert the keys they
    are about, so a new key leaves them unchanged."""
    import weyl_lab.lattice as lattice

    passes = {"dual_vectors": [], "slabs": [], "settles": []}
    dual_vectors, slab_prefixes, slab_ends = (lattice.dual_vectors, lattice.slab_prefixes,
                                              lattice.slab_ends)
    settled = []

    def record_enumeration(*a, **k):
        passes["dual_vectors"].append(float(a[1]))
        return dual_vectors(*a, **k)

    def record_slabs(*a, **k):
        if np.array_equal(a[0], dual_basis):
            passes["slabs"].append(float(a[1]))
        return slab_prefixes(*a, **k)

    def record_row_norms(*a, **k):
        settled.append(a[1].shape[0])
        return slab_row_norms(*a, **k)

    def record_settle(*a, **k):
        mark = len(settled)
        ends = slab_ends(*a, **k)
        if np.array_equal(a[0], dual_basis):
            passes["settles"].append((float(a[2]), settled[mark]))
        return ends

    monkeypatch.setattr(lattice, "dual_vectors", record_enumeration)
    monkeypatch.setattr(lattice, "slab_prefixes", record_slabs)
    monkeypatch.setattr(lattice, "slab_ends", record_settle)
    monkeypatch.setattr(lattice, "slab_row_norms", record_row_norms)
    return passes


def level_loop_sum(m, lo, hi, x, y):
    """The sphere level sum over lo < sqrt(l(l+1))/R <= hi, one level at a
    time in ascending order (the per-window loop the one-pass sum
    replaced)."""
    from weyl_lab.manifolds import sphere_angle
    from weyl_lab.specfun import legendre_p

    c = np.cos(sphere_angle(m, x, y))
    total, l = 0.0, 0
    while m.level_sqrt_eigenvalue(l) <= hi:
        if m.level_sqrt_eigenvalue(l) > lo:
            total += (2 * l + 1) / m.volume * legendre_p(l, c)
        l += 1
    return float(total)


def per_pair_torus_log(lattice, x, y):
    """The shortest representative of y - x by the per-pair search the
    array search replaced: every candidate of the pair's own coefficient
    box, each with its own matrix-vector product and norm, sorted by norm
    in Python (ties are not checked)."""
    diff = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    base = diff - lattice.basis @ np.round(np.linalg.solve(lattice.basis, diff))
    sigma_min = np.linalg.svd(lattice.basis, compute_uv=False)[-1]
    reach = int(np.ceil(2.0 * np.linalg.norm(base) / sigma_min)) + 1
    candidates = []
    for c in itertools.product(range(-reach, reach + 1), repeat=lattice.dim):
        w = base + lattice.basis @ np.asarray(c, dtype=float)
        candidates.append((float(np.linalg.norm(w)), w))
    candidates.sort(key=lambda t: t[0])
    return candidates[0][1]


def box_torus_log(lattice, x, y):
    """`lattice.torus_log` by the search the period-ball walk replaced: one
    coefficient box of reach ceil(2 max|base| / sigma_min) + 1 for every
    pair, in lexicographic order (ties are not checked)."""
    xs, ys, many = point_pairs(x, y)
    basis, diffs = lattice.basis, ys - xs
    base = diffs - (basis @ np.round(np.linalg.solve(basis, diffs[:, :, None])))[:, :, 0]
    sigma_min = np.linalg.svd(basis, compute_uv=False)[-1]
    reach = int(np.ceil(2.0 * np.max(row_norms(base), initial=0.0) / sigma_min)) + 1
    span = np.arange(-reach, reach + 1, dtype=float)
    coeffs = np.stack(np.meshgrid(*[span] * lattice.dim, indexing="ij"), axis=-1)
    candidates = base[:, None, :] + (basis @ coeffs.reshape(-1, lattice.dim, 1))[:, :, 0]
    best = (np.arange(len(xs)), np.argmin(row_norms(candidates), axis=1))
    return candidates[best] if many else candidates[best][0]


def per_point_profile_derivative(nu, u, gamma):
    """`projector._profile_derivative` at one vector u, in scalar calls."""
    r = float(np.linalg.norm(u))
    c = (2.0 * np.pi) ** (u.size / 2.0)
    idx = [j for j, g in enumerate(gamma) for _ in range(g)]
    if not idx:
        return c * float(bessel_ratio(nu, r))
    if len(idx) == 1:
        (j,) = idx
        return -c * float(u[j]) * float(bessel_ratio(nu + 1.0, r))
    i, j = idx
    val = float(u[i]) * float(u[j]) * float(bessel_ratio(nu + 2.0, r))
    if i == j:
        val -= float(bessel_ratio(nu + 1.0, r))
    return c * val


def _deriv_orders(m, d):
    alpha, beta = d.padded(m.dim)
    return alpha, tuple(a + b for a, b in zip(alpha, beta))


def per_point_leading_term(m, lam, x, y, d):
    """The Weyl leading term at one lambda and one pair, in scalar calls
    (the per-point `leading_term` the array one replaced)."""
    n = m.dim
    w = per_pair_torus_log(m.lattice, x, y)
    alpha, gamma = _deriv_orders(m, d)
    base = lam**n / (2.0 * np.pi) ** n
    deriv_scale = (-1.0) ** sum(alpha) * lam ** int(sum(gamma))
    return base * deriv_scale * per_point_profile_derivative(n / 2.0, lam * w, gamma)


def per_point_prediction(m, lam_mid, width, dists, d, direction=None):
    """`cluster_prediction`'s values at the mean shell radius lam_mid, one
    distance at a time along `direction` (default the first axis), by the
    per-distance loop it replaced, taken for every d."""
    n = m.dim
    direction = np.eye(n)[0] if direction is None else np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    alpha, gamma = _deriv_orders(m, d)
    base = width * lam_mid ** (n - 1) / (2.0 * np.pi) ** n
    scale = (-1.0) ** sum(alpha) * lam_mid ** int(sum(gamma))
    return [base * scale * per_point_profile_derivative((n - 2) / 2.0, lam_mid * r * direction,
                                                        gamma)
            for r in dists]


def cellwise_csv_bytes(header, rows):
    """The CSV writer the cached row templates replaced: `fmt` per cell."""
    from weyl_lab.cli import fmt

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def mode_sum_projector(sp, x, y):
    """The smoothed projector's spectral side as the per-mode sum the weight
    box replaced: (1/covol) sum_k m(|k|) cos<k, y - x> over the dual points
    of the tail ball, one weight per mode from `np.unique` of the norms.
    Also returns (1/covol) sum |m|, the scale its rounding is measured
    against."""
    from weyl_lab.lattice import dual_vectors
    from weyl_lab.smoothing import multiplier_batch

    _, vectors, norms = dual_vectors(sp.manifold.lattice, sp.tail_radius)
    uniq, inverse = np.unique(norms, return_inverse=True)
    weights = multiplier_batch(sp.spec, sp.lam, sp.A, uniq)[inverse]
    phases = vectors @ (np.asarray(y, dtype=float) - np.asarray(x, dtype=float))
    covol = sp.manifold.lattice.covolume
    return (float(np.sum(weights * np.cos(phases))) / covol,
            float(np.sum(np.abs(weights))) / covol)


def stretched_projector(m, spec, lam, A, factor):
    """A `SmoothedProjector` whose spectral tail radius R is stretched to
    lam + factor * (R - lam), by patching `spectral_tail_radius` while it is
    built: factor > 1 checks the truncation by doubling, and factor < 1
    keeps a 3-D per-mode oracle cheap (the separable sum is an identity at
    any radius)."""
    import weyl_lab.smoothing as smoothing

    original = smoothing.spectral_tail_radius

    def stretched(spec, lam, A, decay=None):
        return lam + factor * (original(spec, lam, A, decay=decay) - lam)

    smoothing.spectral_tail_radius = stretched
    try:
        return smoothing.SmoothedProjector(m, spec, lam, A)
    finally:
        smoothing.spectral_tail_radius = original


def clamped_panel(sp):
    """The radial panel width the band-limit rule replaced: 13 nodes per
    period of the fastest image oscillation (frequency support/A), clamped
    to A/2 to resolve the multiplier transition."""
    from weyl_lab.smoothing import _PANEL_PERIODS

    return min(_PANEL_PERIODS * 2.0 * np.pi / sp.image_radius, sp.A / 2.0)


def full_ball_box(sp):
    """The weight box of `sp` filled from the whole ball of each shell (the
    half-ball fill replaced it): the shells of the build, every row of a
    shell enumerated, one multiplier evaluation per distinct norm, and each
    weight written to its own row's coefficients."""
    import math

    from weyl_lab.lattice import dual_vectors
    from weyl_lab.smoothing import _SHELL_ROWS, multiplier_batch

    lattice, n = sp.manifold.lattice, sp.manifold.dim
    ball = np.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * sp.tail_radius ** n
    shells = math.ceil(ball / abs(np.linalg.det(lattice.dual_basis)) / _SHELL_ROWS)
    radii = sp.tail_radius * (np.arange(1, shells + 1) / shells) ** (1.0 / n)
    radii[-1] = sp.tail_radius
    box = np.zeros_like(sp._box)
    inner = -1.0
    for outer in radii.tolist():
        coeffs, _, norms = dual_vectors(lattice, outer, inner)
        starts = np.flatnonzero(np.concatenate([[True], norms[1:] != norms[:-1]]))
        weights = multiplier_batch(sp.spec, sp.lam, sp.A, norms[starts])
        box[tuple((coeffs + sp._half).T)] = np.repeat(
            weights, np.diff(np.append(starts, norms.size)))
        inner = outer
    return box


def images_on_panel(sp, x, y, panel):
    """`sp.images(x, y)` with the radial integral over [0, tail radius] on
    16-node Gauss-Legendre panels of width at most `panel` (a copy of `sp`
    carries the rule; `sp` is unchanged)."""
    from weyl_lab.smoothing import _composite_gauss_legendre, multiplier_batch

    other = copy.copy(sp)
    n_panels = int(np.ceil(sp.tail_radius / panel))
    other._r_nodes, other._r_weights = _composite_gauss_legendre(sp.tail_radius, n_panels)
    other._m_radial = multiplier_batch(sp.spec, sp.lam, sp.A, other._r_nodes)
    return other.images(x, y)


def images_rounding_scale(sp, x, y):
    """Per pair, (2 pi)^{-n} times the sum over images and radial nodes of
    |m(r) r^{n-1} S_n(r |w|) weight|: the moduli the images side adds up,
    the scale its rounding is measured against."""
    from weyl_lab.lattice import deck_images
    from weyl_lab.manifolds import point_pairs
    from weyl_lab.specfun import sphere_fourier

    xs, ys, _ = point_pairs(x, y)
    n = sp.manifold.dim
    base = np.abs(sp._m_radial * sp._r_weights * sp._r_nodes ** (n - 1))
    images = deck_images(sp.manifold.lattice, xs, ys, sp.image_radius * (1.0 + 1e-12))
    return np.array([sum(float(np.abs(sphere_fourier(n, length * sp._r_nodes)) @ base)
                         for length in np.linalg.norm(w, axis=1))
                     for w in images]) / (2.0 * np.pi) ** n


def unblocked_sine_integrals(spec, nus, n_panels):
    """`smoothing._sine_integrals` as one sine block and one matrix-vector
    product over every nu (the row blocks replaced it)."""
    from weyl_lab.smoothing import _composite_gauss_legendre, rho_hat

    nodes, weights = _composite_gauss_legendre(spec.support, n_panels)
    return np.sin(np.outer(nus, nodes)) @ (rho_hat(spec, nodes) * weights / nodes)


def per_step_panel_eval(panel_coeffs, nu0, nus):
    """`smoothing._panel_eval` gathering each Clenshaw step's coefficients
    per panel with its own take (one block gather replaced it)."""
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


def taylor_sub_panels(panel_coeffs, sub_panels, degree):
    """`smoothing._sub_panel_table`'s coefficients by another route: the
    Taylor coefficients p^(k)(x_j) / (k! sub_panels^k) of each panel series
    p at every sub-panel centre x_j from numpy's chebder and chebval, in
    t in [-1, 1] across the sub-panel; t^k, k > degree, economized top down
    with cheb2poly's T_k; then the powers of t = 2u taken to powers of u."""
    terms, n_panels = panel_coeffs.shape
    centres = (2.0 * np.arange(sub_panels) + 1.0) / sub_panels - 1.0
    series = np.array(panel_coeffs)
    taylor = np.empty((terms, n_panels, sub_panels))
    for k in range(terms):
        taylor[k] = chebyshev.chebval(centres, series)
        series = chebyshev.chebder(series, scl=1.0 / sub_panels) / (k + 1)
    for k in range(terms - 1, degree, -1):
        t_k = chebyshev.cheb2poly(np.eye(k + 1)[k]) * 2.0 ** (1 - k)
        for j in range(k - 2, -1, -2):
            taylor[j] -= taylor[k] * t_k[j]
    return (taylor[degree::-1] * 2.0 ** np.arange(degree, -1, -1)[:, None, None]).reshape(
        degree + 1, -1)


def unseeded_bessel_ratio(nu, r):
    """`specfun.bessel_ratio` on an array, its recurrence run on every
    radius as given, the ones the series then overwrites included (seeding
    those past Cephes' near branch replaced it)."""
    nu = _order(nu)
    ra = np.asarray(r, dtype=float)
    series = ra < (nu if nu > 1.0 else RADIAL_SERIES_SWITCH)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = _ratio_upward(nu, ra)
    out[series] = _ratio_series(nu, ra[series])
    return out
