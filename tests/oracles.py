"""Slow reference paths kept for the tests: the bounding-box dual-lattice
enumerator and the materialised torus mode sum that the slab-wise code
replaced, the per-level sphere loop, the cell-by-cell CSV writer, the
smoothed projector's per-mode spectral sum and its images side on a radial
rule of any panel width, with the clamped width the band-limit rule
replaced, and a projector with a stretched spectral tail."""

import copy

import numpy as np

from weyl_lab.errors import DomainError
from weyl_lab.lattice import check_cap


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
    """Radii of the dual-lattice passes made while `monkeypatch` is active:
    "dual_vectors" lists the enumerations, "slabs" every `slab_prefixes`
    call on `dual_basis` (each slab-wise kernel or count pass, and each
    enumeration, which runs on slabs too)."""
    import weyl_lab.lattice as lattice

    passes = {"dual_vectors": [], "slabs": []}
    dual_vectors, slab_prefixes = lattice.dual_vectors, lattice.slab_prefixes

    def record_enumeration(*a, **k):
        passes["dual_vectors"].append(float(a[1]))
        return dual_vectors(*a, **k)

    def record_slabs(*a, **k):
        if np.array_equal(a[0], dual_basis):
            passes["slabs"].append(float(a[1]))
        return slab_prefixes(*a, **k)

    monkeypatch.setattr(lattice, "dual_vectors", record_enumeration)
    monkeypatch.setattr(lattice, "slab_prefixes", record_slabs)
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
