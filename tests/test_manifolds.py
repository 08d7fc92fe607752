import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (box_lattice_vectors, canonical_half, full_slab_ends, level_loop_sum,
                     materialised_window_sum)
from weyl_lab import lattice as lat
from weyl_lab.cli import parse_manifold
from weyl_lab.errors import DomainError, ResourceLimitError, SpectrumError
from weyl_lab.lattice import Lattice
from weyl_lab.manifolds import (
    ON_SPECTRUM_TOL,
    ZERO_DERIV,
    DerivIndex,
    FlatTorus,
    RoundSphere2,
    cluster_kernel,
    eigenlevels,
    spectral_function,
    spectral_window,
    sphere_angle,
)

TORUS = FlatTorus(Lattice.square(2.0 * np.pi))
SPHERE = RoundSphere2()
NORTH = np.array([0.0, 0.0, 1.0])


def sphere_point(theta, phi=0.0, radius=1.0):
    return radius * np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )


def test_eigenlevels_sphere():
    levels = eigenlevels(SPHERE, 1.5)
    assert [lv.multiplicity for lv in levels] == [1, 3]
    assert levels[0].sqrt_eigenvalue == 0.0
    assert_allclose(levels[1].sqrt_eigenvalue, np.sqrt(2.0), rtol=1e-15)


def test_eigenlevels_torus():
    levels = eigenlevels(TORUS, 1.0)
    assert [lv.multiplicity for lv in levels] == [1, 4]
    assert sum(lv.multiplicity for lv in eigenlevels(TORUS, 10.0)) == 317


def _level_loop_degrees(m, lo, hi):
    # reference: walk the levels one by one
    degrees, l = [], 0
    while m.level_sqrt_eigenvalue(l) <= hi:
        if m.level_sqrt_eigenvalue(l) > lo:
            degrees.append(l)
        l += 1
    return degrees


@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_sphere_window_matches_level_loop(radius, monkeypatch):
    m = RoundSphere2(radius)
    a, b = m.level_sqrt_eigenvalue(3), m.level_sqrt_eigenvalue(12)
    # each endpoint exactly on a level and one ulp to either side
    los = [-1.0, np.nextafter(a, 0.0), a, np.nextafter(a, np.inf)]
    his = [np.nextafter(b, 0.0), b, np.nextafter(b, np.inf)]
    for lo in los:
        for hi in his:
            win = spectral_window(m, lo, hi)
            expected = _level_loop_degrees(m, lo, hi)
            assert win.degrees.tolist() == expected
            assert win.roots.tolist() == [m.level_sqrt_eigenvalue(l) for l in expected]
            assert win.mults.tolist() == [2 * l + 1 for l in expected]
    # the candidate degrees are allocated at once, so the cap bounds them
    monkeypatch.setattr(lat, "ENUM_CAP", 100)
    with pytest.raises(ResourceLimitError):
        spectral_window(m, -1.0, 1e6)


def test_torus_window_is_the_enumeration_above_lo():
    # the window holds the canonical half of the ball's rows above lo (the
    # origin, and of each pair k, -k the one whose first nonzero coefficient
    # is positive), sorted by (norm, lexicographic coeffs) as the box
    # enumerator sorts them, bit for bit; a pair's row has multiplicity 2
    coeffs, vectors, norms = box_lattice_vectors(TORUS.lattice.dual_basis, 9.0)
    for lo in (-1.0, 0.0, 5.0, np.sqrt(26.0)):
        win = spectral_window(TORUS, lo, 9.0)
        keep = (norms > lo) & (norms <= 9.0)
        half = keep & canonical_half(coeffs)
        assert win.roots.tobytes() == norms[half].tobytes()
        assert win.vectors.tobytes() == vectors[half].tobytes()
        assert win.mults.tolist() == [2 if c.any() else 1 for c in coeffs[half]]
        assert win.mults.sum() == np.count_nonzero(keep)


def test_spectral_function_constant_mode_only():
    val = spectral_function(TORUS, 0.5, np.array([0.1, 0.2]), np.array([1.0, -2.0]))
    assert_allclose(val, 1.0 / (4.0 * np.pi**2), rtol=1e-12)


def test_spectral_function_five_modes_on_diagonal():
    # lambda below sqrt(2) so only {0, +-e1, +-e2} are inside the ball
    x = np.array([0.7, 0.3])
    assert_allclose(spectral_function(TORUS, 1.3, x, x), 5.0 / (4.0 * np.pi**2), rtol=1e-12)
    # at lambda = 1.5 the |k| = sqrt(2) shell joins (4 more modes)
    assert_allclose(spectral_function(TORUS, 1.5, x, x), 9.0 / (4.0 * np.pi**2), rtol=1e-12)


def test_spectral_function_sphere_two_levels():
    # E_{1.5} = 1/(4 pi) + 3 cos(theta) / (4 pi)
    for theta in [0.0, 0.4, 2.0]:
        got = spectral_function(SPHERE, 1.5, NORTH, sphere_point(theta))
        assert_allclose(got, (1.0 + 3.0 * np.cos(theta)) / (4.0 * np.pi), rtol=1e-12)


def test_spectral_function_on_spectrum_rejected():
    with pytest.raises(SpectrumError):
        spectral_function(TORUS, 1.0, np.zeros(2), np.zeros(2))
    with pytest.raises(SpectrumError):
        spectral_function(SPHERE, np.sqrt(2.0), NORTH, NORTH)


def test_spectral_function_symmetry_and_translation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = TORUS.lattice.basis @ rng.random(2)
        y = TORUS.lattice.basis @ rng.random(2)
        t = TORUS.lattice.basis @ rng.random(2)
        a = spectral_function(TORUS, 7.3, x, y)
        assert_allclose(a, spectral_function(TORUS, 7.3, y, x), rtol=1e-12)
        assert_allclose(a, spectral_function(TORUS, 7.3, x + t, y + t), rtol=2e-11, atol=1e-13)


def test_cluster_kernel_windows():
    x = np.array([0.4, 0.9])
    assert cluster_kernel(TORUS, 0.5, 0.4, x, x) == 0.0
    # window (0.5, 1.3] holds exactly the four unit modes
    assert_allclose(cluster_kernel(TORUS, 0.5, 0.8, x, x), 1.0 / np.pi**2, rtol=1e-12)
    # widening to (0.5, 1.5] adds the |k| = sqrt(2) shell
    assert_allclose(cluster_kernel(TORUS, 0.5, 1.0, x, x), 2.0 / np.pi**2, rtol=1e-12)


def test_cluster_kernel_sphere_single_level():
    l = 7
    lam = SPHERE.level_sqrt_eigenvalue(l)
    got = cluster_kernel(SPHERE, lam - 0.5, 1.0, NORTH, NORTH)
    assert_allclose(got, (2 * l + 1) / (4.0 * np.pi), rtol=1e-12)


def test_cluster_kernel_positivity_and_cauchy_schwarz():
    rng = np.random.default_rng(11)
    for lam in [5.3, 12.7]:
        for _ in range(5):
            x = TORUS.lattice.basis @ rng.random(2)
            y = TORUS.lattice.basis @ rng.random(2)
            cxx = cluster_kernel(TORUS, lam, 1.0, x, x)
            cyy = cluster_kernel(TORUS, lam, 1.0, y, y)
            cxy = cluster_kernel(TORUS, lam, 1.0, x, y)
            assert cxx >= 0.0
            assert abs(cxy) <= np.sqrt(cxx * cyy) + 1e-12


def test_diagonal_trace_identity():
    # integral over M of E_lambda(x,x) = eigenvalue count; kernels are
    # constant on the diagonal for both models
    for lam in [4.3, 9.7]:
        # integer points in the disk of radius lam
        ks = np.arange(-int(lam), int(lam) + 1)
        count = int(np.count_nonzero(ks[:, None] ** 2 + ks[None, :] ** 2 <= lam**2))
        diag = spectral_function(TORUS, lam, np.zeros(2), np.zeros(2))
        assert_allclose(diag * TORUS.volume, count, rtol=1e-10)
    for lam in [5.2, 30.7]:
        # levels l <= L carry (L + 1)^2 eigenfunctions
        top = max(l for l in range(int(lam) + 1) if l * (l + 1) <= lam**2)
        count = (top + 1) ** 2
        diag = spectral_function(SPHERE, lam, NORTH, NORTH)
        assert_allclose(diag * SPHERE.volume, count, rtol=1e-10)


def test_torus_derivative_modes():
    # d = ((1,0),(1,0)): sum of k_1^2 over modes, positive on the diagonal
    d = DerivIndex(alpha=(1, 0), beta=(1, 0))
    x = np.array([0.3, 0.8])
    got = spectral_function(TORUS, 1.3, x, x, d)
    assert_allclose(got, 2.0 / (4.0 * np.pi**2), rtol=1e-12)  # k = (+-1, 0)
    # first-order derivative of a real kernel vanishes on the diagonal
    d1 = DerivIndex(alpha=(1, 0))
    assert abs(spectral_function(TORUS, 1.3, x, x, d1)) < 1e-15


def test_derivative_validation():
    with pytest.raises(DomainError):
        DerivIndex(alpha=(2, 1))  # total order 3
    with pytest.raises(DomainError):
        spectral_function(SPHERE, 1.5, NORTH, NORTH, DerivIndex(alpha=(1,)))


def test_sphere_angle_robust():
    assert_allclose(sphere_angle(SPHERE, NORTH, sphere_point(1.3)), 1.3, rtol=1e-12)
    with pytest.raises(DomainError):
        sphere_angle(SPHERE, NORTH, 2.0 * NORTH)
    # point arrays: every angle equals a per-pair call bit for bit, and so
    # equals the scalar expression arctan2(|x cross y|, x . y)
    big = RoundSphere2(radius=1.7)
    rng = np.random.default_rng(8)
    xs, ys = (big.radius * v / np.linalg.norm(v, axis=1, keepdims=True)
              for v in rng.standard_normal((2, 500, 3)))
    got = sphere_angle(big, xs, ys)
    expected = [np.arctan2(np.linalg.norm(np.cross(x, y)), float(x @ y)) for x, y in zip(xs, ys)]
    for rows in ([sphere_angle(big, x, y) for x, y in zip(xs, ys)], expected):
        assert got.tobytes() == np.array(rows).tobytes()
    assert np.cos(got).tobytes() == np.array([np.cos(a) for a in expected]).tobytes()
    # one point off the sphere fails the whole array
    ys[123] *= 1.01
    with pytest.raises(DomainError, match="does not lie on the sphere"):
        sphere_angle(big, xs, ys)


@pytest.mark.parametrize("spec", ["torus:2:square2pi", "torus:2:hex", "torus:2:mat:1,0.9;0,0.2",
                                  "torus:3:square2pi", "sphere2:1.7"])
def test_models_carry_their_distance_and_injectivity_radius(spec):
    # bit for bit the per-model expressions the scans, the mollifier, the
    # cluster-vs-Bessel grid check and the CLI chose between
    m = parse_manifold(spec)
    rng = np.random.default_rng(11)
    if isinstance(m, RoundSphere2):
        xs, ys = (m.radius * v / np.linalg.norm(v, axis=1, keepdims=True)
                  for v in rng.standard_normal((2, 50, 3)))
        inj = np.pi * m.radius
        dists = sphere_angle(m, xs, ys) * m.radius
        first = sphere_angle(m, xs[0], ys[0]) * m.radius
    else:
        xs = rng.uniform(-4.0, 4.0, (50, m.dim))
        ys = xs + rng.standard_normal((50, m.dim))
        inj = lat.injectivity_radius(m.lattice)
        dists = lat.torus_distance(m.lattice, xs, ys)
        first = lat.torus_distance(m.lattice, xs[0], ys[0])
    assert m.injectivity_radius == inj
    assert m.distance(xs, ys).tobytes() == dists.tobytes()
    assert np.float64(m.distance(xs[0], ys[0])).tobytes() == np.float64(first).tobytes()


def test_sphere_radius_scaling():
    big = RoundSphere2(radius=2.0)
    lam = big.level_sqrt_eigenvalue(3)
    x = sphere_point(0.0, radius=2.0)
    got = cluster_kernel(big, lam - 0.1, 0.2, x, x)
    assert_allclose(got, 7.0 / (4.0 * np.pi * 4.0), rtol=1e-12)


# ---------------------------------------------------------------------------
# lambda grids and point sets: one window per call, scalar values bit for bit

HEX = FlatTorus(Lattice.hexagonal(1.0))
SKEW = FlatTorus(Lattice.from_basis([[1.0, 0.3], [0.0, 1.2]]))
TORUS3 = FlatTorus(Lattice.square(2.0 * np.pi, dim=3))


def assert_bitwise(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _torus_points(m, count, seed):
    rng = np.random.default_rng(seed)
    return rng.random((count, m.dim)) @ m.lattice.basis.T


KERNEL_CASES = {
    "square": (TORUS, [3.3, 7.1, 12.6, 20.5], DerivIndex(alpha=(1, 0), beta=(1, 0))),
    "hex": (HEX, [8.1, 13.3, 25.7], ZERO_DERIV),
    "skew": (SKEW, [6.2, 11.9, 30.3], DerivIndex(alpha=(2, 0))),
    "3d": (TORUS3, [2.3, 4.9, 7.7], DerivIndex(beta=(0, 1, 0))),
    "sphere": (SPHERE, [1.1, 4.3, 9.9, 15.2], ZERO_DERIV),
}


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_vectorised_kernels_equal_scalar_calls(case):
    m, grid, d = KERNEL_CASES[case]
    if isinstance(m, RoundSphere2):
        xs = np.array([sphere_point(0.0), sphere_point(0.3, 1.0), sphere_point(2.0, -0.5)])
        ys = np.array([sphere_point(0.4), sphere_point(1.3, 0.2), sphere_point(2.9, 2.0)])
    else:
        xs, ys = _torus_points(m, 3, 1), _torus_points(m, 3, 2)
    grid = np.array(grid)
    both = spectral_function(m, grid, xs, ys, d)
    assert_bitwise(both, [[spectral_function(m, lam, x, y, d) for x, y in zip(xs, ys)]
                          for lam in grid])
    assert_bitwise(spectral_function(m, grid, xs[0], ys[0], d), both[:, 0])
    assert_bitwise(spectral_function(m, grid[1], xs, ys, d), both[1])
    # one point pairs with every row of the other
    assert_bitwise(spectral_function(m, grid[2], xs[0], ys, d),
                   [spectral_function(m, grid[2], xs[0], y, d) for y in ys])
    for width in (0.5, 2.0):
        both = cluster_kernel(m, grid, width, xs, ys, d)
        assert_bitwise(both, [[cluster_kernel(m, lam, width, x, y, d)
                               for x, y in zip(xs, ys)] for lam in grid])
        assert_bitwise(cluster_kernel(m, grid, width, xs[1], ys[1], d), both[:, 1])
        assert_bitwise(cluster_kernel(m, grid[0], width, ys, xs[2], d),
                       [cluster_kernel(m, grid[0], width, y, xs[2], d) for y in ys])


@pytest.mark.parametrize("m", [TORUS, HEX, TORUS3, RoundSphere2(6.0)],
                         ids=["square", "hex", "3d", "sphere2:6"])
def test_per_lambda_widths_equal_scalar_calls(m):
    # the window ends 23.1, 7.7, 12.3, 18.7 do not increase, so the slabs
    # must reach the largest end, not the last
    grid = np.array([3.1, 7.4, 11.9, 16.2])
    widths = np.array([20.0, 0.3, 1.0 / np.log(11.9), 2.5])
    if isinstance(m, RoundSphere2):
        xs = np.array([sphere_point(0.0, radius=6.0), sphere_point(0.3, 1.0, radius=6.0)])
        ys = np.array([sphere_point(0.0, radius=6.0), sphere_point(1.3, 0.2, radius=6.0)])
        d = ZERO_DERIV
    else:
        xs, ys = _torus_points(m, 2, 3), _torus_points(m, 2, 4)
        ys[0] = xs[0]
        d = DerivIndex(alpha=(0, 1), beta=(0, 1))
    assert_bitwise(cluster_kernel(m, grid, widths, xs, ys, d),
                   [[cluster_kernel(m, lam, width, x, y, d) for x, y in zip(xs, ys)]
                    for lam, width in zip(grid, widths)])
    assert_bitwise(cluster_kernel(m, grid, widths, xs[0], ys[0], d),
                   [cluster_kernel(m, lam, width, xs[0], ys[0], d)
                    for lam, width in zip(grid, widths)])


def test_width_array_must_have_the_shape_of_lambda():
    x = np.array([0.7, 0.3])
    for lam, width in (([3.1, 7.4], [1.0, 2.0, 3.0]), ([3.1, 7.4], [[1.0, 2.0]]),
                       (3.1, [1.0]), ([3.1, 7.4], [1.0, 0.0]), ([3.1, 7.4], [1.0, np.nan])):
        with pytest.raises(DomainError, match="width"):
            cluster_kernel(TORUS, lam, width, x, x)


def test_scalar_arguments_still_return_floats():
    x = np.array([0.7, 0.3])
    assert type(spectral_function(TORUS, 7.3, x, x)) is float
    assert type(cluster_kernel(TORUS, 7.3, 1.0, x, x)) is float
    assert spectral_function(TORUS, [7.3], x, [x, x]).shape == (1, 2)


@pytest.mark.parametrize("case", ["square", "hex", "skew", "sphere"])
def test_window_sliced_from_a_larger_ball_equals_a_fresh_window(case):
    m = KERNEL_CASES[case][0]
    big = spectral_window(m, -1.0, 40.0)
    roots = big.roots
    # bounds between roots, on roots, and one ulp either side of a root
    r = float(roots[roots.size // 3])
    bounds = [(-1.0, 17.3), (2.5, 9.1), (r, 39.0), (np.nextafter(r, 0.0), r),
              (1.0, np.nextafter(r, np.inf)), (float(roots[5]), float(roots[-1]))]
    for lo, hi in bounds:
        fresh = spectral_window(m, lo, hi)
        sliced = big.between(lo, hi)
        for name in ("roots", "mults", "degrees", "vectors"):
            a, b = getattr(sliced, name), getattr(fresh, name)
            assert (a is None) == (b is None)
            if a is not None:
                assert_bitwise(a, b)


@pytest.mark.parametrize("m", [TORUS, HEX, SPHERE], ids=["square", "hex", "sphere"])
def test_window_membership_is_exact_at_hi(m):
    roots = spectral_window(m, -1.0, 12.0).roots
    r = float(roots[roots.size // 2])
    # a root exactly on hi is inside; one ulp below hi it is not
    assert spectral_window(m, -1.0, r).roots[-1] == r
    assert spectral_window(m, -1.0, np.nextafter(r, 0.0)).roots.max() < r
    assert spectral_window(m, np.nextafter(r, 0.0), r).roots.tolist() == \
        [v for v in roots.tolist() if v == r]


def test_square_torus_window_stops_below_an_integer_norm():
    # |(3, 4)| = |(5, 0)| = 5 exactly; a window ending one ulp below 5 must
    # not take them in through a relative slack
    win = spectral_window(TORUS, 4.5, np.nextafter(5.0, 0.0))
    assert win.roots.size == 0
    # the 12 points of norm 5 are 6 rows k, -k
    at_five = spectral_window(TORUS, 4.5, 5.0)
    assert at_five.roots.tolist() == [5.0] * 6 and at_five.mults.tolist() == [2] * 6


def test_on_spectrum_lambda_inside_a_grid_is_named():
    x = np.array([0.7, 0.3])
    with pytest.raises(SpectrumError, match=r"lambda=5 is within"):
        spectral_function(TORUS, [4.5, 5.0, 5.5], x, x)
    with pytest.raises(SpectrumError, match=r"lambda=1\.41421356237 is within"):
        spectral_function(SPHERE, [0.5, np.sqrt(2.0), 3.0], NORTH, NORTH)
    # within the guard but not equal, on either side
    for lam in (5.0 - 5e-10, 5.0 + 5e-10):
        with pytest.raises(SpectrumError):
            spectral_function(TORUS, [4.5, lam, 5.5], x, x)
    assert np.all(np.isfinite(spectral_function(TORUS, [4.5, 5.0 + 2e-9], x, x)))
    # just below sqrt(2), whose roots (+-1, +-1) sit one step past the ends
    # of nonempty slabs
    with pytest.raises(SpectrumError, match=r"lambda=1\.41421356187 is within"):
        spectral_function(TORUS, [0.5, np.sqrt(2.0) - 5e-10], x, x)


@pytest.mark.parametrize("call", [
    lambda x: spectral_function(TORUS, np.nan, x, x),
    lambda x: spectral_function(TORUS, np.inf, x, x),
    lambda x: spectral_function(TORUS, [4.5, np.nan], x, x),
    lambda x: cluster_kernel(TORUS, 3.5, np.nan, x, x),
    lambda x: cluster_kernel(TORUS, 3.5, np.inf, x, x),
    lambda x: spectral_function(SPHERE, np.inf, NORTH, NORTH),
], ids=["nan", "inf", "grid-nan", "width-nan", "width-inf", "sphere-inf"])
def test_non_finite_lambda_and_width_are_rejected(call):
    # NaN compares false with everything, so these once summed empty windows
    with pytest.raises(DomainError, match="finite"):
        call(np.array([0.4, 0.9]))


def test_power_sum_table_is_the_exact_rational_rounded_once():
    from fractions import Fraction
    from math import comb

    import mpmath as mp

    import weyl_lab.manifolds as mf

    # reference Bernoulli numbers from mpmath (exact rationals, B_1 = -1/2)
    top = 2 * mf.SERIES_TERMS
    bern = [Fraction(*mp.bernfrac(j)) for j in range(top + 1)]
    exact = [[Fraction(2, m + 1) * comb(m + 1, 2 * k) * (Fraction(2) ** (1 - 2 * k) - 1)
              * bern[2 * k] for k in range(m // 2 + 1)] for m in range(0, top + 1, 2)]
    assert mf._POWER_SUMS == [[float(c) for c in row] for row in exact]
    # h * poly(h^2) is the sum of s^m over the N = 2h centred points
    for n_points in (1, 2, 3, 7, 10):
        h = Fraction(n_points, 2)
        points = [Fraction(2 * j - n_points + 1, 2) for j in range(n_points)]
        for m, row in zip(range(0, top + 1, 2), exact):
            poly = sum(c * h ** (m + 1 - 2 * k) for k, c in enumerate(row))
            assert poly == sum(s ** m for s in points), (n_points, m)


def test_grid_is_validated_before_any_sum(monkeypatch):
    import weyl_lab.manifolds as mf

    sums = []
    for name in ("_slab_window_sums", "_sphere_window_sums"):
        original = getattr(mf, name)
        monkeypatch.setattr(mf, name, lambda *a, _f=original: sums.append(1) or _f(*a))
    x = np.zeros(2)
    for bad in ([3.5, 2.5, 4.5], [3.5, 3.5], [[1.5, 2.5]], []):
        with pytest.raises(DomainError):
            spectral_function(TORUS, bad, x, x)
        with pytest.raises(DomainError):
            cluster_kernel(TORUS, bad, 1.0, x, x)
    with pytest.raises(DomainError):
        spectral_function(TORUS, [-1.5, 2.5], x, x)
    with pytest.raises(DomainError):
        spectral_function(TORUS, 2.5, np.zeros((2, 2)), np.zeros((3, 2)))
    # the slabs up to lambda_max (2e7 + 1 of them here) are counted first,
    # so the cap stops the call before the small lambdas are summed; every
    # other call here stays far below the lowered cap
    monkeypatch.setattr(lat, "ENUM_CAP", 10**6)
    with pytest.raises(ResourceLimitError, match="20000001 coefficient slabs"):
        spectral_function(TORUS, [1.5, 2.5, 1e7], x, x)
    with pytest.raises(ResourceLimitError, match="20000003 coefficient slabs"):
        cluster_kernel(TORUS, [1.5, 2.5, 1e7], 1.0, x, x)
    with pytest.raises(SpectrumError):
        spectral_function(TORUS, [1.5, 5.0, 7.5], x, x)
    with pytest.raises(ResourceLimitError):
        spectral_function(SPHERE, [1.5, 2.5, 1e7], NORTH, NORTH)
    assert sums == []
    # the counters do see the sums
    spectral_function(TORUS, [1.5, 2.5], x, x)
    spectral_function(SPHERE, 1.5, NORTH, NORTH)
    assert sums == [1, 1, 1]


# ---------------------------------------------------------------------------
# slab-wise torus sums against the materialised mode sum; sphere one-pass
# sums against the per-level loop


def _derivative_indices(n):
    """Every (alpha, beta) of total order <= 2 in n dimensions."""
    return [DerivIndex(alpha=c[:n], beta=c[n:])
            for c in itertools.product(range(3), repeat=2 * n) if sum(c) <= 2]


ORACLE_TORI = {
    "square": ("torus:2:square2pi", 80.0, 300),
    "hex": ("torus:2:hex", 80.0, 80),
    "skew": ("torus:2:mat:1,0.3;0,1.2", 80.0, 300),
    "3d": ("torus:3:square2pi", 9.0, 700),
}


@pytest.mark.parametrize("case", list(ORACLE_TORI))
def test_slab_sums_match_the_materialised_mode_sum(case):
    import weyl_lab.manifolds as mf

    spec, reach, index = ORACLE_TORI[case]
    m = parse_manifold(spec)
    norms = box_lattice_vectors(m.lattice.dual_basis, reach)[2]
    hi_root, lo_root = float(norms[index]), float(norms[index // 3])
    x = m.lattice.basis @ np.random.default_rng(5).random(m.dim)
    offsets = [m.lattice.basis @ np.array([0.37, 0.81, 0.55][:m.dim]),   # generic pair
               np.zeros(m.dim),                                        # diagonal
               1e-7 * np.arange(1.0, m.dim + 1.0),                     # N |beta| << 1
               0.02 * np.array([1.0, 0.7, 0.4][:m.dim]),               # N |beta| ~ 1
               m.lattice.basis[:, 0]]                                  # a period vector
    xs, ys = np.array([x] * len(offsets)), x + np.array(offsets)
    # window ends exactly on a root and one ulp to either side; lo < 0 is a ball
    his = [hi_root, np.nextafter(hi_root, 0.0), np.nextafter(hi_root, np.inf)]
    los = [-1.0, lo_root, np.nextafter(lo_root, 0.0), np.nextafter(lo_root, np.inf)]
    for d in _derivative_indices(m.dim):
        for lo, hi in itertools.product(los, his):
            got = mf._window_sums(m, np.array([lo]), np.array([hi]), xs, ys, d, False)[0]
            for value, xp, yp in zip(got, xs, ys):
                expected, scale = materialised_window_sum(m, lo, hi, xp, yp, d)
                assert abs(value - expected) <= 1e-12 * scale, (d, lo, hi, yp - xp)


def test_sphere_sums_equal_the_level_loop():
    xs = np.array([sphere_point(0.0), sphere_point(0.3, 1.0), sphere_point(2.0, -0.5)])
    ys = np.array([sphere_point(0.0), sphere_point(1.3, 0.2), sphere_point(2.9, 2.0)])
    grid = np.array([0.7, 4.3, 9.9, 40.2, 120.6])
    assert_bitwise(spectral_function(SPHERE, grid, xs, ys),
                   [[level_loop_sum(SPHERE, -1.0, lam, x, y) for x, y in zip(xs, ys)]
                    for lam in grid])
    assert_bitwise(cluster_kernel(SPHERE, grid, 3.0, xs, ys),
                   [[level_loop_sum(SPHERE, lam, lam + 3.0, x, y) for x, y in zip(xs, ys)]
                    for lam in grid])


@pytest.mark.parametrize("lam", [200.5, 800.5])
def test_sphere_antipodal_sum_is_the_alternating_level_count(lam):
    # P_l(-1) = (-1)^l exactly, so E_lambda(N, -N) is the exact
    # sum (2l+1)(-1)^l / (4 pi) to rounding (the recurrence on cos = -1
    # itself missed it by 9.6e-11 at lambda 800.5)
    ls = np.arange(int(lam) + 1)
    exact = float(np.sum((2 * ls + 1) * (-1.0) ** ls)) / (4.0 * np.pi)
    got = spectral_function(SPHERE, lam, NORTH, -NORTH)
    assert abs(got - exact) <= 1e-13 * abs(exact)
    assert_bitwise(spectral_function(SPHERE, [lam], NORTH, -NORTH), [level_loop_sum(
        SPHERE, -1.0, lam, NORTH, -NORTH)])


# ---------------------------------------------------------------------------
# per-lambda slabs: each window end settles only the slabs its ball meets

SETTLE_TORI = {
    "square": ("torus:2:square2pi", 60.0),
    "hex": ("torus:2:hex", 60.0),
    "skew": ("torus:2:mat:1,0.9;0,0.2", 60.0),
    "3d": ("torus:3:square2pi", 14.0),
    # dual vectors of length ~0.1, where the guard's distance, not the
    # margin's 1e-9 of the squared terms, keeps the slabs near a threshold
    "coarse": ("torus:2:diag:60,70", 3.0),
}


def _full_runs(G, prefixes, form, lo, hi):
    """`lattice.slab_runs` of (lo, hi] settled on every slab (the oracle),
    and the guard's exact distance at hi."""
    outer = full_slab_ends(G, prefixes, hi, form)
    inner = None if lo < 0.0 else full_slab_ends(G, prefixes, lo, form)
    return lat.slab_runs(outer, inner), outer[2]


def _assert_pruned_settle_is_the_full_settle(G, prefixes, thresholds):
    form = lat.slab_form(G, prefixes)
    # per slab, its smallest row norm less the guard's distance, raised by
    # ulps until the gap is below it: settled alone, the slab must report
    # that gap, which it can only do if the margin on const - q vertex^2
    # covers the rounding there and keeps the slab
    foot = np.floor(form[2]).astype(np.int64)
    smallest = lat.slab_row_norms(G, prefixes, foot, (0, 1)).min(axis=0)
    below = smallest - ON_SPECTRUM_TOL
    while np.any(smallest - below >= ON_SPECTRUM_TOL):
        up = smallest - below >= ON_SPECTRUM_TOL
        below[up] = np.nextafter(below[up], np.inf)
    for s in np.flatnonzero(below > 0.0):
        one = (form[0], form[1][s:s + 1], form[2][s:s + 1])
        assert lat.slab_ends(G, prefixes[s:s + 1], below[s], one)[2] < ON_SPECTRUM_TOL, s
    thresholds = np.sort(thresholds)
    for lo, hi in zip(np.concatenate(([-1.0], thresholds[:-1])), thresholds):
        for low in (-1.0, lo):
            (slab, starts, stops), exact = _full_runs(G, prefixes, form, low, hi)
            outer = lat.slab_ends(G, prefixes, hi, form)
            inner = None if low < 0.0 else lat.slab_ends(G, prefixes, low, form)
            got = lat.slab_runs(outer, inner)
            assert [r.tobytes() for r in got] == [slab.tobytes(), starts.tobytes(),
                                                  stops.tobytes()], (low, hi)
            assert (outer[2] < ON_SPECTRUM_TOL) == (exact < ON_SPECTRUM_TOL), hi


@pytest.mark.parametrize("case", list(SETTLE_TORI))
def test_pruned_settle_equals_the_full_settle(case):
    spec, reach = SETTLE_TORI[case]
    G = parse_manifold(spec).lattice.dual_basis
    prefixes = lat.slab_prefixes(G, reach)
    norms = np.unique(box_lattice_vectors(G, reach)[2])
    roots = norms[np.linspace(1, norms.size - 1, 12).astype(int)]
    # a wide grid, roots exactly, an ulp to either side, and inside the guard
    thresholds = np.concatenate((
        np.geomspace(0.05, reach, 25), roots, np.nextafter(roots, 0.0),
        np.nextafter(roots, np.inf), roots - 5e-10, roots + 5e-10))
    _assert_pruned_settle_is_the_full_settle(G, prefixes, np.unique(thresholds))


def test_pruned_settle_equals_the_full_settle_far_below_the_reach():
    # slabs out to 1e4 settled at lambda down to 0.5: on this basis
    # const - q vertex^2 is 1/21 of const, the most cancellation of the tori
    # tested, and const reaches 2e9
    G = parse_manifold("torus:2:mat:1,0.9;0,0.2").lattice.dual_basis
    _assert_pruned_settle_is_the_full_settle(G, lat.slab_prefixes(G, 1e4),
                                             np.geomspace(0.5, 1e4, 24))


@pytest.mark.parametrize("m", [TORUS, TORUS3], ids=["2d", "3d"])
def test_guard_sees_a_small_lambda_of_a_grid(m):
    # 5 is a root on both tori, and the slabs reach 50.5
    x = np.zeros(m.dim)
    for lam in (5.0, 5.0 + 5e-10):
        with pytest.raises(SpectrumError, match=r"lambda=5(\.0000000005)? is within"):
            spectral_function(m, [lam, 50.5], x, x)
    # the cluster kernel has no guard: its windows (5, 6] and (50.5, 51.5]
    # hold exactly the roots there, with (5, 0, ...) out and (6, 0, ...) in,
    # and on the diagonal each window sums to its count over the covolume
    norms = box_lattice_vectors(m.lattice.dual_basis, 52.0)[2]
    for lam in (5.0, 5.0 + 5e-10):
        counts = [np.count_nonzero((norms > lo) & (norms <= lo + 1.0)) for lo in (lam, 50.5)]
        assert_bitwise(cluster_kernel(m, [lam, 50.5], 1.0, x, x),
                       np.array(counts, dtype=float) / m.volume)


def test_settles_touch_only_each_lambdas_own_slabs(monkeypatch):
    from oracles import record_passes
    from weyl_lab.cli import parse_grid

    grid = parse_grid("20.5:59.5:4:log")
    settles = record_passes(monkeypatch, TORUS3.lattice.dual_basis)["settles"]
    spectral_function(TORUS3, grid, np.zeros((2, 3)), _torus_points(TORUS3, 2, 7))
    assert [t for t, _ in settles] == grid.tolist()
    # the dual basis is the identity: the slab (p1, p2) has its line at
    # squared distance p1^2 + p2^2, held to lambda plus the stated margin
    p = np.arange(-59, 60)
    line = (p[:, None] ** 2 + p[None, :] ** 2).ravel()
    for lam, count in settles:
        reach2 = (lam + ON_SPECTRUM_TOL) ** 2
        assert count <= np.count_nonzero(line <= reach2 + 1e-9 * (line + reach2)), lam
    # against 14,161 slabs of lambda_max's ball for every lambda
    assert sum(count for _, count in settles) < 0.4 * 4 * 14161


@pytest.mark.parametrize("order", [0, 2])
def test_zero_beta_moments_equal_the_full_series(order):
    import weyl_lab.manifolds as mf

    def full_series(counts, beta):
        return mf._moment_series(counts, beta, order, mf.SERIES_TERMS)

    def assert_bits(got, expected):
        # compares signed zeros too
        for a, b in zip(got, expected):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    counts = np.arange(1.0, 1e4 + 1.0)
    for zero in (0.0, -0.0):
        beta = np.full(counts.size, zero)
        assert_bits(mf._dirichlet_moments(counts, beta, order), full_series(counts, beta))
    # mixed: zero, series (N |beta| < 1) and closed-form entries
    rng = np.random.default_rng(3)
    counts = np.floor(rng.uniform(1.0, 1e4, 3000))
    beta = rng.choice([0.0, -0.0, 1e-7, -3e-5, 0.5, -2.0, np.pi], counts.size)
    got = mf._dirichlet_moments(counts, beta, order)
    zero = beta == 0.0
    rest = mf._dirichlet_moments(counts[~zero], beta[~zero], order)
    expected = [np.empty(counts.size) for _ in got]
    for e, z, r in zip(expected, full_series(counts[zero], beta[zero]), rest):
        e[zero], e[~zero] = z, r
    assert_bits(got, expected)


@pytest.mark.parametrize("spec", ["torus:2:square2pi", "torus:2:hex", "torus:2:mat:1,0.9;0,0.2",
                                  "torus:3:square2pi"])
def test_torus_injectivity_radius_is_computed_once(monkeypatch, spec):
    m = parse_manifold(spec)
    calls = []
    lattice_vectors = lat._lattice_vectors

    def record(*a, **k):
        calls.append(a[1])
        return lattice_vectors(*a, **k)

    monkeypatch.setattr(lat, "_lattice_vectors", record)
    first = m.injectivity_radius
    assert len(calls) == 1
    assert m.injectivity_radius == first
    assert len(calls) == 1
    monkeypatch.undo()
    assert np.float64(first).tobytes() == np.float64(lat.injectivity_radius(m.lattice)).tobytes()
