import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import record_passes
from weyl_lab.errors import DomainError, PreconditionError
from weyl_lab.lattice import Lattice
from weyl_lab.manifolds import (
    DerivIndex,
    FlatTorus,
    RoundSphere2,
    cluster_kernel,
    spectral_function,
)
from weyl_lab.projector import (
    cluster_prediction,
    cluster_vs_bessel,
    geodesic_points,
    leading_term,
    offdiagonal_scan,
    remainder_scan,
)
from weyl_lab.specfun import bessel_j, legendre_p

TORUS = FlatTorus(Lattice.square(2.0 * np.pi))
TORUS3 = FlatTorus(Lattice.square(2.0 * np.pi, dim=3))
SPHERE = RoundSphere2()
ORIGIN = np.zeros(2)

# brute-force integer-grid counts, frozen (double loop oracle)
BRUTE_COUNTS = {100.3: 31617, 61.3: 11817, 83.7: 22009, 120.4: 45549, 47.9: 7201}


def test_leading_term_diagonal_volume():
    # lambda^n * vol(unit ball) / (2 pi)^n on the diagonal, n = 2 and 3
    for lam in [3.0, 10.0]:
        assert_allclose(leading_term(TORUS, lam, ORIGIN, ORIGIN), lam**2 / (4.0 * np.pi),
                        rtol=1e-13)
        assert_allclose(leading_term(TORUS3, lam, np.zeros(3), np.zeros(3)),
                        lam**3 / (6.0 * np.pi**2), rtol=1e-13)


def test_leading_term_offdiagonal_against_disk_quadrature():
    # frozen 2-D quadrature oracle: (100/(4 pi^2)) * B_2(1.0)
    got = leading_term(TORUS, 10.0, ORIGIN, np.array([0.1, 0.0]))
    assert_allclose(got, 7.0036225931790102604, rtol=1e-12)


def test_leading_term_derivative_moment():
    # matched first derivatives pull the xi_1^2 moment of the unit disk:
    # lambda^{n+2}/(2 pi)^n * (pi/4)
    d = DerivIndex(alpha=(1, 0), beta=(1, 0))
    lam = 7.0
    got = leading_term(TORUS, lam, ORIGIN, ORIGIN, d)
    assert_allclose(got, lam**4 / (16.0 * np.pi), rtol=1e-13)


def test_leading_term_mixed_derivative_antisymmetry():
    # single x-derivative flips sign against the matching y-derivative
    lam, y = 9.0, np.array([0.21, 0.05])
    dx = DerivIndex(alpha=(1, 0))
    dy = DerivIndex(beta=(1, 0))
    assert_allclose(leading_term(TORUS, lam, ORIGIN, y, dx),
                    -leading_term(TORUS, lam, ORIGIN, y, dy), rtol=1e-13)


def remainder(m, lam, x, y, d=DerivIndex()):
    # the Weyl remainder: exact spectral function minus the leading term
    return spectral_function(m, lam, x, y, d) - leading_term(m, lam, x, y, d)


def test_remainder_closed_forms():
    # lambda below the first nonzero eigenvalue: both terms in closed form
    exact = spectral_function(TORUS, 0.5, ORIGIN, ORIGIN)
    assert_allclose(exact, 1.0 / (4.0 * np.pi**2), rtol=1e-13)
    assert_allclose(leading_term(TORUS, 0.5, ORIGIN, ORIGIN), 0.25 / (4.0 * np.pi), rtol=1e-13)
    assert_allclose(remainder(TORUS, 0.5, ORIGIN, ORIGIN),
                    1.0 / (4.0 * np.pi**2) - 1.0 / (16.0 * np.pi), rtol=1e-12)
    # tiny lambda: remainder approaches 1/vol(M)
    assert_allclose(remainder(TORUS, 0.01, ORIGIN, ORIGIN), 1.0 / (4.0 * np.pi**2), rtol=1e-3)


@pytest.mark.parametrize("lam", sorted(BRUTE_COUNTS))
def test_diagonal_remainder_is_gauss_circle_error(lam):
    covol = TORUS.lattice.covolume
    expected = (BRUTE_COUNTS[lam] - np.pi * lam**2) / covol
    assert_allclose(remainder(TORUS, lam, ORIGIN, ORIGIN), expected, rtol=1e-9, atol=1e-9)


def test_remainder_scan_exponent_bounds():
    grid = np.geomspace(50.5, 150.5, 10)
    pairs = [(ORIGIN, ORIGIN)]
    rep = remainder_scan(TORUS, grid, pairs)
    assert rep.fitted_exponent <= 1.0
    d = DerivIndex(alpha=(1, 0), beta=(1, 0))
    rep2 = remainder_scan(TORUS, grid, pairs, d)
    assert abs((rep2.fitted_exponent - rep.fitted_exponent) - 2.0) < 0.45


def test_remainder_scan_rejects_far_pairs():
    with pytest.raises(PreconditionError):
        remainder_scan(TORUS, np.array([10.0, 20.0, 30.0]),
                       [(ORIGIN, np.array([2.0, 0.0]))])


def test_offdiagonal_scan_torus():
    grid = np.geomspace(50.5, 400.5, 20)
    pairs = [(ORIGIN, np.array([1.0, 0.0])), (ORIGIN, np.array([1.3, 0.45])),
             (ORIGIN, np.array([np.pi / 2, np.pi / 2])), (ORIGIN, np.array([2.0, 0.7])),
             (ORIGIN, np.array([1.1, 2.3])), (ORIGIN, np.array([3.0, 0.2]))]
    rep = offdiagonal_scan(TORUS, grid, 1.0, pairs)
    assert rep.fitted_exponent <= 0.75
    with pytest.raises(PreconditionError):
        offdiagonal_scan(TORUS, grid, 2.0, pairs)


def test_offdiagonal_scan_sphere_finite():
    north = np.array([0.0, 0.0, 1.0])
    pairs = [(north, np.array([np.sin(t), 0.0, np.cos(t)])) for t in (0.7, 1.2, 2.0)]
    grid = np.geomspace(20.3, 60.3, 6)
    rep = offdiagonal_scan(SPHERE, grid, 0.5, pairs)
    assert np.all(np.isfinite(rep.sup_values))
    assert np.isfinite(rep.fitted_exponent)


def test_cluster_vs_bessel_torus_diagonal():
    lam, width = 30.0, 1.0
    table = cluster_vs_bessel(TORUS, lam, width, ORIGIN, np.array([0.0, 0.05, 0.1]))
    covol = TORUS.lattice.covolume
    # integer points with lam < |k| <= lam + width
    ks = np.arange(-40, 41)
    sq = ks[:, None] ** 2 + ks[None, :] ** 2
    count = np.count_nonzero((sq > lam**2) & (sq <= (lam + width) ** 2))
    assert_allclose(table.cluster[0], count / covol, rtol=1e-12)
    # prediction at dist 0 is width * lam_mid/(2 pi) * J_0(0)
    assert_allclose(table.bessel_prediction[0], table.mean_shell_radius / (2.0 * np.pi),
                    rtol=1e-12)
    assert table.diagonal == pytest.approx(table.cluster[0], rel=1e-12)


def test_cluster_vs_bessel_sphere_single_level_mehler_heine():
    # agreement improves as l grows
    errs = {}
    for l in (20, 60):
        lam_l = SPHERE.level_sqrt_eigenvalue(l)
        thetas = np.linspace(0.0, 8.0 / lam_l, 9)
        table = cluster_vs_bessel(SPHERE, lam_l - 0.5, 1.0,
                                  np.array([0.0, 0.0, 1.0]), thetas)
        # cluster column is the addition theorem for the single level
        assert_allclose(table.cluster,
                        (2 * l + 1) / (4.0 * np.pi) * legendre_p(l, np.cos(thetas)),
                        rtol=1e-11)
        # prediction column is (lam_l / 2 pi) J_0(lam_l theta)
        assert_allclose(table.bessel_prediction,
                        lam_l / (2.0 * np.pi) * bessel_j(0, lam_l * thetas), rtol=1e-11)
        errs[l] = np.max(table.abs_error) / table.diagonal
    assert errs[60] < errs[20]


def test_cluster_vs_bessel_sign_change_past_first_zero():
    lam, width = 40.0, 1.0
    j0_first_zero = 2.404825557695773
    lam_mid = lam + 0.5
    d1 = 0.9 * j0_first_zero / lam_mid
    d2 = 1.3 * j0_first_zero / lam_mid
    table = cluster_vs_bessel(TORUS, lam, width, ORIGIN, np.array([d1, d2]))
    assert table.bessel_prediction[0] > 0 > table.bessel_prediction[1]
    assert table.cluster[0] > 0 > table.cluster[1]


def test_cluster_prediction_scalar_form():
    val, lam_mid = cluster_prediction(TORUS, 30.0, 1.0, 0.0)
    assert lam_mid == pytest.approx(30.5, abs=0.1)
    assert val == pytest.approx(lam_mid / (2.0 * np.pi), rel=1e-12)


def test_sphere_jump_matches_level_weight():
    # crossing lambda_l adds exactly (2l+1)/(4 pi R^2) on the diagonal
    north = np.array([0.0, 0.0, 1.0])
    for l in (5, 30):
        lam_l = SPHERE.level_sqrt_eigenvalue(l)
        below = spectral_function(SPHERE, lam_l - 1e-6, north, north)
        above = spectral_function(SPHERE, lam_l + 1e-6, north, north)
        assert_allclose(above - below, (2 * l + 1) / (4.0 * np.pi), rtol=1e-12)


def test_leading_term_domain_checks():
    with pytest.raises(DomainError):
        leading_term(SPHERE, 5.0, np.array([0, 0, 1.0]), np.array([0, 0, 1.0]))
    with pytest.raises(DomainError):
        leading_term(TORUS, -1.0, ORIGIN, ORIGIN)


def test_scans_reject_an_empty_pair_set():
    with pytest.raises(DomainError, match="pair set is empty"):
        remainder_scan(TORUS, [10.5, 20.5], [])
    with pytest.raises(DomainError, match="pair set is empty"):
        offdiagonal_scan(TORUS, [10.5, 20.5], 1.0, [])


def test_geodesic_points_domain():
    # a torus geodesic needs a direction of positive length
    with pytest.raises(DomainError, match="no length"):
        geodesic_points(TORUS, [0.0, 0.1], direction=np.zeros(2))
    # sphere geodesics are meridians from the north pole: naming that pole
    # is allowed, any other base point or a direction is not
    north, points, direction = geodesic_points(SPHERE, [0.0, 0.5], x0=np.array([0.0, 0.0, 1.0]))
    assert direction is None and np.array_equal(points[0], north)
    for kwargs in ({"x0": np.array([1.0, 0.0, 0.0])}, {"x0": np.zeros(2)},
                   {"direction": np.array([1.0, 0.0])}):
        with pytest.raises(DomainError, match="torus only"):
            geodesic_points(SPHERE, [0.0, 0.5], **kwargs)


# ---------------------------------------------------------------------------
# one-window scans against the per-lambda loops they replace (the oracle:
# every scalar call builds its own window)


def assert_bitwise(got, expected):
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def per_lambda_offdiagonal(m, grid, pairs):
    return [max(abs(spectral_function(m, lam, x, y)) for x, y in pairs) for lam in grid]


def per_lambda_remainder(m, grid, pairs, d):
    return [max(abs(remainder(m, lam, x, y, d)) for x, y in pairs) for lam in grid]


NORTH = np.array([0.0, 0.0, 1.0])
TORUS_PAIRS = [(np.array([0.3, 0.1]), np.array([1.5, 0.4])),
               (np.array([2.0, 5.0]), np.array([0.4, 3.9])),
               (ORIGIN, np.array([np.pi / 2, np.pi / 2]))]


def test_offdiagonal_scan_matches_per_lambda_loop(monkeypatch):
    grid = np.geomspace(50.5, 200.5, 6)
    passes = record_passes(monkeypatch, TORUS.lattice.dual_basis)
    rep = offdiagonal_scan(TORUS, grid, 1.0, TORUS_PAIRS)
    # one slab pass (reaching just past the guard) and no enumeration
    assert passes == {"dual_vectors": [], "slabs": [pytest.approx(200.5)]}
    assert_bitwise(rep.sup_values, per_lambda_offdiagonal(TORUS, grid, TORUS_PAIRS))
    pairs = [(NORTH, np.array([np.sin(t), 0.0, np.cos(t)])) for t in (0.7, 1.2, 2.0)]
    grid = np.geomspace(20.3, 60.3, 5)
    rep = offdiagonal_scan(SPHERE, grid, 0.5, pairs)
    assert_bitwise(rep.sup_values, per_lambda_offdiagonal(SPHERE, grid, pairs))


@pytest.mark.parametrize("m,grid,d", [
    (TORUS, np.geomspace(50.5, 200.5, 6), DerivIndex()),
    (TORUS, np.geomspace(50.5, 200.5, 6), DerivIndex(alpha=(1, 0), beta=(1, 0))),
    (TORUS3, np.geomspace(10.5, 30.5, 4), DerivIndex()),
], ids=["2d", "deriv-1-1", "3d"])
def test_remainder_scan_matches_per_lambda_loop(monkeypatch, m, grid, d):
    n = m.dim
    pairs = [(np.zeros(n), np.zeros(n)), (np.full(n, 0.2), np.full(n, 0.2) + 0.3 * np.eye(n)[0]),
             (np.full(n, 1.1), np.full(n, 1.0))]
    passes = record_passes(monkeypatch, m.lattice.dual_basis)
    rep = remainder_scan(m, grid, pairs, d)
    assert passes == {"dual_vectors": [], "slabs": [pytest.approx(grid[-1])]}
    assert_bitwise(rep.sup_values, per_lambda_remainder(m, grid, pairs, d))


def test_remainder_exponent_over_two_decades():
    # lambda 50.5..10000.5 (24 log-spaced points, each k + 1/2, so off the
    # square torus spectrum): the slab sums make two decades cheap, and the
    # fitted exponent stays below n - 1 = 1, as O(lambda^{n-1}/log lambda)
    # implies (measured 0.486 for these pairs)
    grid = np.round(np.geomspace(50.0, 10000.0, 24)) + 0.5
    pairs = [(np.zeros(2), np.zeros(2)), (np.full(2, 0.2), np.array([0.5, 0.2])),
             (np.full(2, 1.1), np.full(2, 1.0))]
    start = time.perf_counter()
    rep = remainder_scan(TORUS, grid, pairs)
    elapsed = time.perf_counter() - start
    print("two-decade remainder exponent %.3f (residual %.2f) in %.2f s"
          % (rep.fitted_exponent, rep.fit_residual, elapsed))
    assert elapsed < 5.0
    assert rep.fitted_exponent < 1.0


@pytest.mark.parametrize("m,lam,x0,dists,d", [
    (TORUS, 40.0, np.array([0.3, 1.1]), np.linspace(0.0, 0.3, 7),
     DerivIndex(alpha=(1, 0), beta=(1, 0))),
    (TORUS3, 12.0, np.zeros(3), np.linspace(0.0, 0.5, 4), DerivIndex()),
    (SPHERE, 30.0, None, np.linspace(0.0, 0.6, 7), DerivIndex()),
], ids=["torus", "3d", "sphere"])
def test_cluster_vs_bessel_matches_per_point_loop(monkeypatch, m, lam, x0, dists, d):
    dual_basis = m.lattice.dual_basis if isinstance(m, FlatTorus) else None
    passes = record_passes(monkeypatch, dual_basis)
    table = cluster_vs_bessel(m, lam, 1.0, x0, dists, d)
    if isinstance(m, FlatTorus):
        # one slab pass for the kernels; the mean shell radius enumerates
        # the window's shell alone (on slabs as well)
        assert passes == {"dual_vectors": [lam + 1.0], "slabs": [lam + 1.0] * 2}
        points = [x0 + r * np.eye(m.dim)[0] for r in dists]
    else:
        x0 = NORTH
        points = [np.array([np.sin(r), 0.0, np.cos(r)]) for r in dists]
    assert_bitwise(table.cluster, [cluster_kernel(m, lam, 1.0, x0, pt, d) for pt in points])
    assert table.diagonal == cluster_kernel(m, lam, 1.0, x0, x0, d)
