"""Slow reference paths kept for the tests: the bounding-box dual-lattice
enumerator and the materialised torus mode sum that the slab-wise code
replaced, the settle of every slab that `slab_ends` narrowed to the slabs
near its threshold, the per-level sphere loop, the per-point Weyl leading
term and Bessel prediction with the per-pair candidate search of
`torus_log`, its coefficient-box array search that the period-ball walk
replaced, the cell-by-cell CSV writer with its own per-type cell text,
the smoothed projector's per-mode spectral sum, the canonical half of its
weight box filled from whole balls (the half-ball fill replaced it) and
its images side on a radial rule of any panel width, with the clamped
width the band-limit
rule replaced, a projector with a stretched spectral tail, the J_ref
table built by quadrature, DCT and global series (the route that wrote
the checked-in `weyl_lab._jref_table`), its validation and the writer of
that module, the J panels' Clenshaw recurrence, the J sub-panels'
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


def canonical_half(coeffs):
    """Which rows of an (N, d) coefficient array lie in the canonical half:
    the origin and the rows whose first nonzero coefficient is positive."""
    first = coeffs[np.arange(coeffs.shape[0]), np.argmax(coeffs != 0, axis=1)]
    return first >= 0


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


def cell_text(value):
    """One CSV cell as the writer wrote it before the %-format rule:
    bools as True/False, integers in decimal, floats to 17 significant
    digits, anything else as str writes it."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def cellwise_csv_bytes(header, rows):
    """The CSV writer the cached row templates replaced: `cell_text` per
    cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell_text(v) for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def mode_sum_projector(sp, x, y):
    """The smoothed projector's spectral side as the per-mode sum the weight
    box replaced: (1/covol) sum_k m(|k|) cos<k, y - x> over the dual points
    of the tail ball, enumerated whole from its coefficient box, one weight
    per mode from `np.unique` of the norms.  Also returns
    (1/covol) sum |m|, the scale its rounding is measured against."""
    from weyl_lab.smoothing import multiplier_batch

    _, vectors, norms = box_lattice_vectors(sp.manifold.lattice.dual_basis, sp.tail_radius)
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

    def stretched(spec, lam, A):
        return lam + factor * (original(spec, lam, A) - lam)

    smoothing.spectral_tail_radius = stretched
    try:
        return smoothing.SmoothedProjector(m, spec, lam, A)
    finally:
        smoothing.spectral_tail_radius = original


# the J_ref quadrature's 16-node panels, and the clamped radial rule's,
# hold 16/13 periods of the fastest sine (~13 nodes a period)
PANEL_PERIODS = 16.0 / 13.0


def clamped_panel(sp):
    """The radial panel width the band-limit rule replaced: 13 nodes per
    period of the fastest image oscillation (frequency support/A), clamped
    to A/2 to resolve the multiplier transition."""
    return min(PANEL_PERIODS * 2.0 * np.pi / sp.image_radius, sp.A / 2.0)


def full_ball_box(sp):
    """The canonical half of the whole weight box of `sp` filled from the
    whole ball of each shell (the half-ball fill replaced it): the shells
    of the build, every row of a shell enumerated by the whole-ball walk,
    one multiplier evaluation per distinct norm, and each weight written to
    its own row's coefficients; then the part c_1 >= 0 with the plane
    c_1 = 0 cut to its c lexicographically >= 0."""
    import math

    from weyl_lab.lattice import _lattice_vectors
    from weyl_lab.smoothing import _SHELL_ROWS, multiplier_batch

    lattice, n = sp.manifold.lattice, sp.manifold.dim
    ball = np.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * sp.tail_radius ** n
    shells = math.ceil(ball / abs(np.linalg.det(lattice.dual_basis)) / _SHELL_ROWS)
    radii = sp.tail_radius * (np.arange(1, shells + 1) / shells) ** (1.0 / n)
    radii[-1] = sp.tail_radius
    box = np.zeros(tuple(2 * sp._half + 1))
    inner = -1.0
    for outer in radii.tolist():
        coeffs, _, norms = _lattice_vectors(lattice.dual_basis, outer, inner)
        distinct, inverse = np.unique(norms, return_inverse=True)
        box[tuple((coeffs + sp._half).T)] = multiplier_batch(
            sp.spec, sp.lam, sp.A, distinct)[inverse]
        inner = outer
    half = box[sp._half[0]:].copy()
    # the plane c_1 = 0 in row-major order is lexicographic, the origin in
    # its middle
    plane = half[0].reshape(-1)
    plane[:plane.size // 2] = 0.0
    return half


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


def unblocked_sine_integrals(nus, n_panels):
    """J_ref(nu) = int_0^1 rho_hat(u) sin(u nu)/u du for the reference
    cutoff of support 1, on the composite rule of n_panels 16-node panels,
    as one sine block and one matrix-vector product over every nu."""
    from weyl_lab.smoothing import MollifierSpec, _composite_gauss_legendre, rho_hat

    nodes, weights = _composite_gauss_legendre(1.0, n_panels)
    base = rho_hat(MollifierSpec(support=1.0), nodes) * weights / nodes
    return np.sin(np.outer(nus, nodes)) @ base


def chebyshev_coefficients(values):
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


# J_ref' is band-limited to [-1, 1]; the Chebyshev coefficients of J_ref on
# [0, nu0] reach the rounding floor near degree 0.6 nu0
JREF_DEGREE = 615
# the tolerance of every check of the J_ref table
JREF_TOL = 1e-13
# one panel per 8 global coefficients, each a series of degree 24
# (truncation below the series' own ~2e-14 rounding; one panel per 11
# coefficients already fails the 1e-13 check)
_DEGREE_PER_PANEL = 8


def reference_j_table(panel_degree=24):
    """The J_ref table by quadrature, DCT and global series: (coeffs,
    panel_coeffs, record).

    J_ref is sampled at the JREF_DEGREE + 1 first-kind Chebyshev nodes of
    [0, nu0] and at 16 probes in [nu0, 1.5 nu0) by the composite rule at two
    panel counts, the finer with ~13 nodes a period of the fastest sine.
    `coeffs` is the global Chebyshev series in 2 nu/nu0 - 1 from the DCT of
    the finer samples.  `panel_coeffs` is a (panel_degree + 1, P) table of
    Chebyshev series on P ~ degree / 8 equal panels of [0, nu0], each from
    the global series (numpy's chebval) at its first-kind nodes.  `record`
    holds the degree, the finer rule's panel count, the panel-doubling
    residual at the nodes and probes, the largest coefficient in the last
    eighth of the series, and max |J - pi/2| on the probes."""
    from weyl_lab._jref_table import NU0

    n = JREF_DEGREE + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    probes = NU0 * (1.0 + np.arange(16) / 32.0)
    nus = np.concatenate([NU0 * np.cos(0.5 * theta) ** 2, probes])
    n_panels = int(np.ceil(float(nus.max()) / (PANEL_PERIODS * 2.0 * np.pi)))
    coarse = unblocked_sine_integrals(nus, n_panels)
    fine = unblocked_sine_integrals(nus, 2 * n_panels)
    coeffs = chebyshev_coefficients(fine[:n])
    record = {"degree": JREF_DEGREE, "panels": 2 * n_panels,
              "residual": float(np.max(np.abs(fine - coarse))),
              "trailing": float(np.max(np.abs(coeffs[-(n // 8):]))),
              "tail": float(np.max(np.abs(fine[n:] - 0.5 * np.pi)))}
    count = int(np.ceil(coeffs.size / _DEGREE_PER_PANEL))
    m = panel_degree + 1
    width = NU0 / count
    nodes = 0.5 * (1.0 + np.cos(np.pi * (np.arange(m) + 0.5) / m))
    edges = width * np.arange(count)
    nus = (edges[:, None] + width * nodes).ravel()
    values = chebyshev.chebval(2.0 * nus / NU0 - 1.0, coeffs)
    panel_coeffs = np.ascontiguousarray(chebyshev_coefficients(values.reshape(count, m)).T)
    return coeffs, panel_coeffs, record


def _panel_probes(nu0, count):
    """Every edge of `count` equal panels of [0, nu0), one ulp either side
    of it (nu0 excluded), then every panel's midpoint."""
    width = nu0 / count
    edges = width * np.arange(count)
    return np.concatenate([edges, np.nextafter(edges, nu0),
                           np.nextafter(edges[1:], 0.0), edges + 0.5 * width])


def sub_panel_error(sub_coeffs, coeffs):
    """The largest distance of the sub-panel polynomials `sub_coeffs` (as
    `smoothing._horner_eval` reads them) from the global series `coeffs`
    on `_panel_probes` of their panels and one ulp either side of every
    sub-panel edge e (nu0 from below and nu0 itself).  The series is summed
    at e alone: J moves by at most 2^-52 over one ulp of e, since
    J'(nu) = -int rho_hat'(u) sin(u nu) du / nu and rho_hat falls
    monotonically from 1 to 0, so |J'(nu)| <= 1/nu."""
    from weyl_lab._jref_table import NU0
    from weyl_lab.smoothing import _SUB_PANELS, _horner_eval

    count = sub_coeffs.shape[1]
    probes = _panel_probes(NU0, count // _SUB_PANELS)
    edges = np.append(NU0 / count * np.arange(1, count), NU0)
    want = chebyshev.chebval(2.0 * np.concatenate([probes, edges]) / NU0 - 1.0, coeffs)
    want = np.concatenate([want, want[probes.size:]])
    nus = np.concatenate([probes, np.nextafter(edges, 0.0), np.nextafter(edges, NU0)])
    return float(np.max(np.abs(_horner_eval(sub_coeffs, NU0, nus) - want)))


def jref_module_text(coeffs, panel_coeffs, record):
    """The source of `weyl_lab._jref_table` for the output of
    `reference_j_table()`: nu0, and the panel table as float literals
    written with repr, which Python reads back with correct rounding, so
    the table has the same bits on every host.  The header records the
    validation results, with the error of the sub-panels the program
    derives from the table; nothing reads them at run time."""
    from weyl_lab._jref_table import NU0
    from weyl_lab.smoothing import _sub_panel_polynomials

    sub_error = sub_panel_error(_sub_panel_polynomials(panel_coeffs), coeffs)
    terms, count = panel_coeffs.shape
    lines = [
        '"""The J_ref panel table: J_ref(nu) = int_0^1 rho_hat(u) sin(u nu)/u du',
        "for the reference cutoff of support 1 (plateau 5/9), on [0, NU0], as",
        "%d equal panels, each a degree-%d Chebyshev series in 2 (nu - edge) /"
        % (count, terms - 1),
        "width - 1: PANEL_COEFFS[k][p] is the coefficient of T_k on panel p."
        '"""',
        "",
        "# Generated by jref_module_text(*reference_j_table()) in tests/oracles.py;",
        "# rewrite it with `PYTHONPATH=src python tests/oracles.py` from the",
        "# repository root.",
        "# Validation, each against 1e-13: global series degree %d on %d"
        % (record["degree"], record["panels"]),
        "# quadrature panels, panel-doubling residual %.1e, trailing coefficients"
        % record["residual"],
        "# %.1e, |J - pi/2| past NU0 %.1e, sub-panel error %.1e."
        % (record["trailing"], record["tail"], sub_error),
        "",
        "NU0 = %r" % float(NU0),
        "",
        "PANEL_COEFFS = (",
    ]
    for row in panel_coeffs:
        lines.append("    (")
        cells = [repr(float(v)) + "," for v in row]
        for lo in range(0, len(cells), 4):
            lines.append("        " + " ".join(cells[lo:lo + 4]))
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines) + "\n"


def per_step_panel_eval(panel_coeffs, nu0, nus):
    """The J panel table's Chebyshev series at nus in [0, nu0): each nu's
    panel is floor(nu P / nu0), and one Clenshaw recurrence runs on all of
    them, each step's coefficients gathered per panel."""
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
    """`smoothing._sub_panel_polynomials`'s coefficients by another route: the
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


if __name__ == "__main__":
    # rewrites the checked-in J_ref table (see jref_module_text)
    import weyl_lab._jref_table

    text = jref_module_text(*reference_j_table())
    with open(weyl_lab._jref_table.__file__, "w") as module:
        module.write(text)
