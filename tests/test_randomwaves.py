import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import sph_legendre_p
from scipy.stats import chi2

from oracles import record_passes
from weyl_lab.errors import DomainError, PreconditionError
from weyl_lab.lattice import Lattice
from weyl_lab.manifolds import FlatTorus, RoundSphere2
from weyl_lab.randomwaves import (
    RandomWaveEnsemble,
    default_rescaling_radius,
    empirical_covariance,
    exact_covariance,
    rescaled_covariance_error,
    sample_wave_grid,
)
from weyl_lab.rng import BLOCK_VALUES, gaussian_matrix

TORUS = FlatTorus(Lattice.square(2.0 * np.pi))
SPHERE = RoundSphere2()


def sample_wave(ens, sample_index, x):
    # one wave sample at one point, lam^{(1-n)/2} sum a_j phi_j(x), from a
    # single coefficient row and a single mode column
    coeffs = ens.coefficients([sample_index])[0]
    phi = ens.mode_values([np.asarray(x, dtype=float)])[:, 0]
    return float(ens.normalization * (coeffs @ phi))


def test_gaussian_matrix_is_counter_based():
    # draws depend only on (seed, sample, mode): row blocks agree regardless
    # of which other rows are requested
    full = gaussian_matrix(7, np.arange(10), 5)
    part = gaussian_matrix(7, [3, 7], 5)
    assert np.array_equal(full[[3, 7]], part)
    assert not np.array_equal(full, gaussian_matrix(8, np.arange(10), 5))


def test_gaussian_matrix_moments():
    g = gaussian_matrix(123, np.arange(400), 500)
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01
    assert abs((g**3).mean()) < 0.02


def test_sample_determinism_bit_for_bit():
    ens = RandomWaveEnsemble(TORUS, 30.0, 1.0, seed=11, num_samples=4)
    x = np.array([0.7, 2.0])
    a = sample_wave(ens, 2, x)
    ens2 = RandomWaveEnsemble(TORUS, 30.0, 1.0, seed=11, num_samples=4)
    assert a == sample_wave(ens2, 2, x)


def test_golden_sample_values():
    # committed after the first validated run (determinism + covariance
    # tests green); guards the generator and mode ordering against drift
    ens = RandomWaveEnsemble(TORUS, 200.0, 1.0, seed=42, num_samples=8)
    assert ens.mode_count == 1280
    assert sample_wave(ens, 0, np.zeros(2)) == pytest.approx(
        0.042576744660454469, abs=1e-16)
    assert sample_wave(ens, 3, np.array([1.0, 0.5])) == pytest.approx(
        0.59292423752627177, abs=1e-15)


def test_empty_window_rejected():
    ens = RandomWaveEnsemble(TORUS, 0.5, 0.2, seed=1, num_samples=2)
    with pytest.raises(DomainError, match="holds no modes"):
        sample_wave_grid(ens, [0], np.zeros((1, 2)))


def test_sample_index_validation():
    ens = RandomWaveEnsemble(TORUS, 5.0, 1.0, seed=1, num_samples=3)
    with pytest.raises(DomainError, match="sample index"):
        sample_wave_grid(ens, [3], np.zeros((1, 2)))


def test_exact_covariance_identity_torus():
    # cluster kernel route and direct windowed mode sum agree to 1e-12
    ens = RandomWaveEnsemble(TORUS, 30.0, 1.0, seed=5, num_samples=2)
    x, y = np.array([0.4, 1.2]), np.array([0.9, 0.8])
    phi = ens.mode_values(np.vstack([x, y]))
    direct = ens.lam ** (1 - 2) * float(phi[:, 0] @ phi[:, 1])
    assert_allclose(direct, exact_covariance(ens, x, y), rtol=1e-12)


def test_exact_covariance_identity_sphere():
    l = 12
    lam = SPHERE.level_sqrt_eigenvalue(l)
    ens = RandomWaveEnsemble(SPHERE, lam - 0.5, 1.0, seed=5, num_samples=2)
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([np.sin(0.3), 0.0, np.cos(0.3)])
    phi = ens.mode_values(np.vstack([x, y]))
    direct = ens.lam ** (1 - 2) * float(phi[:, 0] @ phi[:, 1])
    assert_allclose(direct, exact_covariance(ens, x, y), rtol=1e-11)


def _normalized_legendre_rows(l: int, cos_theta: np.ndarray) -> np.ndarray:
    """Spherical-harmonic-normalized associated Legendre values
    Pbar_l^m(cos theta) for m = 0..l, shape (l+1, N); stable upward
    recurrence, so sum_m Y_lm^2 reproduces (2l+1)/(4 pi)."""
    x = np.asarray(cos_theta, dtype=float)
    sin_theta = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    out = np.zeros((l + 1, x.size))
    pmm = np.full(x.size, np.sqrt(1.0 / (4.0 * np.pi)))  # Pbar_0^0
    for m in range(0, l + 1):
        if m == l:
            out[m] = pmm
            break
        prev = pmm                                   # Pbar_m^m
        cur = np.sqrt(2.0 * m + 3.0) * x * pmm       # Pbar_{m+1}^m
        for ll in range(m + 2, l + 1):
            a = np.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - m * m))
            b = np.sqrt(((2.0 * ll + 1.0) * (ll - 1.0 - m) * (ll - 1.0 + m))
                        / ((2.0 * ll - 3.0) * (ll * ll - m * m)))
            prev, cur = cur, a * x * cur - b * prev
        out[m] = cur                                 # Pbar_l^m
        pmm = -np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * sin_theta * pmm
    return out


@pytest.mark.parametrize("l", [0, 1, 2, 5, 51, 120])
def test_sphere_level_basis_matches_recurrence(l):
    from weyl_lab.randomwaves import _sphere_level_basis_values

    # reference: the upward associated-Legendre recurrence above, assembled
    # into the same (m = 0, then cos/sin pairs) real basis; agreement in sign
    # keeps seeded sphere waves on the same realisations
    radius = 1.7
    theta = np.array([0.0, 0.4, 1.1, 0.5 * np.pi, 2.3, np.pi])
    phi = np.linspace(-3.0, 3.1, theta.size)
    pts = radius * np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                             np.cos(theta)], axis=1)
    pbar = _normalized_legendre_rows(l, pts[:, 2] / radius)
    azimuth = np.arctan2(pts[:, 1], pts[:, 0])
    rows = [pbar[0]]
    for m in range(1, l + 1):
        rows.append(np.sqrt(2.0) * pbar[m] * np.cos(m * azimuth))
        rows.append(np.sqrt(2.0) * pbar[m] * np.sin(m * azimuth))
    expected = np.vstack(rows) / radius
    got = _sphere_level_basis_values(l, radius, pts)
    assert got.shape == (2 * l + 1, theta.size)
    assert_allclose(got, expected, rtol=0, atol=1e-12)

    # within 1e-3 of a pole the recurrence's sqrt(1 - cos^2) loses digits
    # (5e-12 at l = 120, m = 1), so there the oracle is mpmath (phi = 0)
    near = np.array([1e-3, np.pi - 1e-3])
    pts = radius * np.stack([np.sin(near), np.zeros(2), np.cos(near)], axis=1)
    got = _sphere_level_basis_values(l, radius, pts)
    for k, z in enumerate(pts[:, 2] / radius):
        for m in range(min(l, 2) + 1):
            with mp.workdps(30):
                scale = mp.sqrt((2 * l + 1) / (4 * mp.pi)
                                * mp.factorial(l - m) / mp.factorial(l + m))
                want = float(scale * mp.legenp(l, m, mp.mpf(z))) / radius
            row = got[0] if m == 0 else got[2 * m - 1] / np.sqrt(2.0)
            assert abs(row[k] - want) <= 1e-12, (m, z)


@pytest.mark.parametrize("l", [0, 1, 2, 5, 51, 120, 300])
def test_sphere_legendre_rows_match_sph_legendre_p(l):
    # scipy's spherical-harmonic-normalised P_l^m (Condon-Shortley phase)
    # is the oracle; measured <= 3.6e-14 at l = 120, poles included
    from weyl_lab.randomwaves import _sphere_legendre_rows

    rng = np.random.default_rng(5)
    theta = np.concatenate([[0.0, 1e-3, 0.5 * np.pi, np.pi - 1e-3, np.pi],
                            rng.uniform(0.0, np.pi, 200)])
    want = sph_legendre_p(l, np.arange(l + 1)[:, None], theta[None, :])[0]
    got = _sphere_legendre_rows(l, theta)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13


def test_empirical_covariance_within_statistical_error():
    ens = RandomWaveEnsemble(TORUS, 30.0, 1.0, seed=7, num_samples=6000)
    for y in (np.array([0.2, 1.0]), np.array([0.5, 1.3])):
        x = np.array([0.2, 1.0])
        mean, se = empirical_covariance(ens, x, y)
        assert abs(mean - exact_covariance(ens, x, y)) < 4.0 * se


def test_independent_seeds_agree_within_joint_error():
    x, y = np.array([0.1, 0.9]), np.array([0.6, 1.4])
    a = RandomWaveEnsemble(TORUS, 30.0, 1.0, seed=100, num_samples=4000)
    b = RandomWaveEnsemble(TORUS, 30.0, 1.0, seed=200, num_samples=4000)
    ma, sa = empirical_covariance(a, x, y)
    mb, sb = empirical_covariance(b, x, y)
    assert ma != mb
    assert abs(ma - mb) < 6.0 * np.hypot(sa, sb)


def test_unbiasedness_chi_square_over_seed_blocks():
    # 20 independent seed blocks; z-scores against the exact covariance
    # should be chi-square(20) at the 1% level (two-sided)
    x, y = np.array([0.3, 0.8]), np.array([0.7, 1.1])
    zs = []
    for block in range(20):
        ens = RandomWaveEnsemble(TORUS, 20.0, 1.0, seed=5000 + block, num_samples=800)
        mean, se = empirical_covariance(ens, x, y)
        zs.append((mean - exact_covariance(ens, x, y)) / se)
    stat = float(np.sum(np.square(zs)))
    lo, hi = chi2.ppf(0.005, 20), chi2.ppf(0.995, 20)
    assert lo < stat < hi, stat


def test_sphere_ensemble_empirical_covariance():
    l = 10
    lam = SPHERE.level_sqrt_eigenvalue(l)
    ens = RandomWaveEnsemble(SPHERE, lam - 0.5, 1.0, seed=3, num_samples=5000)
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([np.sin(0.25), 0.0, np.cos(0.25)])
    mean, se = empirical_covariance(ens, x, y)
    assert abs(mean - exact_covariance(ens, x, y)) < 4.0 * se


def test_covariance_report_shapes():
    # the covariance table's columns: point arrays give one row per pair,
    # a single point pair gives floats
    ens = RandomWaveEnsemble(TORUS, 20.0, 1.0, seed=9, num_samples=500)
    ys = np.array([[0.1 * j, 0.05 * j] for j in range(3)])
    mean, std_err = empirical_covariance(ens, np.zeros(2), ys)
    assert mean.shape == std_err.shape == exact_covariance(ens, np.zeros(2), ys).shape == (3,)
    assert np.all(std_err > 0)
    one = empirical_covariance(ens, np.zeros(2), ys[1])
    assert isinstance(one[0], float) and isinstance(one[1], float)
    assert one == pytest.approx((mean[1], std_err[1]), rel=1e-12)
    with pytest.raises(PreconditionError):
        empirical_covariance(RandomWaveEnsemble(TORUS, 20.0, 1.0, num_samples=1),
                             np.zeros(2), ys)


def test_rescaled_covariance_universal_values():
    ens = RandomWaveEnsemble(TORUS, 200.0, 1.0, seed=1, num_samples=2)
    x0 = np.zeros(2)
    # u = v: the universal limit is 1/(2 pi) in dimension 2
    exact, universal, err = rescaled_covariance_error(ens, x0, np.zeros(2), np.zeros(2))
    assert_allclose(universal, 1.0 / (2.0 * np.pi), rtol=1e-14)
    assert err < 0.02 * universal
    # separation at the first Bessel zero: universal vanishes
    v = np.array([2.404825557695773, 0.0])
    exact, universal, err = rescaled_covariance_error(ens, x0, np.zeros(2), v)
    assert abs(universal) < 1e-12
    assert abs(exact) < 0.02


def test_rescaled_radius_constraint():
    ens = RandomWaveEnsemble(TORUS, 50.5, 1.0, seed=1, num_samples=2)
    r = default_rescaling_radius(50.5)
    with pytest.raises(PreconditionError):
        rescaled_covariance_error(ens, np.zeros(2), np.zeros(2),
                                  np.array([r * 1.01, 0.0]))


@pytest.mark.parametrize("lam", [0.8, 1.0])
def test_rescaling_radius_needs_lambda_above_one(lam):
    # sqrt(lam/log lam) is nan below 1 and inf at 1, which admitted every
    # |u| without a word
    with pytest.raises(DomainError, match="needs lam > 1, got %g" % lam):
        default_rescaling_radius(lam)
    ens = RandomWaveEnsemble(TORUS, lam, 1.0, seed=1, num_samples=2)
    with pytest.raises(DomainError):
        rescaled_covariance_error(ens, np.zeros(2), np.zeros(2), np.array([0.3, 0.0]))


def test_sample_wave_grid_matches_pointwise():
    ens = RandomWaveEnsemble(TORUS, 10.3, 1.0, seed=4, num_samples=5)
    pts = np.array([[0.0, 0.0], [0.3, 1.0]])
    grid = sample_wave_grid(ens, [1, 4], pts)
    assert grid.shape == (2, 2)
    assert grid[0, 1] == pytest.approx(sample_wave(ens, 1, pts[1]), abs=1e-15)
    assert grid[1, 0] == pytest.approx(sample_wave(ens, 4, pts[0]), abs=1e-15)


def test_covariance_report_draws_coefficients_once(monkeypatch):
    import weyl_lab.randomwaves as rw

    calls, grids = [], []

    def counting(*args):
        calls.append(args)
        return gaussian_matrix(*args)

    def recording(ens, sample_indices, points):
        grids.append(np.asarray(points))
        return sample_wave_grid(ens, sample_indices, points)

    ens = RandomWaveEnsemble(TORUS, 20.0, 1.0, seed=9, num_samples=300)
    xs = np.zeros((4, 2))
    ys = np.array([[0.1 * j, 0.05 * j] for j in range(4)])
    # reference: each pair sampled through explicit indices, a fresh draw each
    expected = []
    for x, y in zip(xs, ys):
        waves = sample_wave_grid(ens, np.arange(ens.num_samples), np.vstack([x, y]))
        prod = waves[:, 0] * waves[:, 1]
        expected.append((np.mean(prod), np.std(prod, ddof=1) / np.sqrt(prod.size)))
    monkeypatch.setattr(rw, "gaussian_matrix", counting)
    monkeypatch.setattr(rw, "sample_wave_grid", recording)
    mean, std_err = empirical_covariance(
        RandomWaveEnsemble(TORUS, 20.0, 1.0, seed=9, num_samples=300), xs, ys)
    assert len(calls) == 1
    # one wave grid over the 4 distinct points (the origin once)
    assert len(grids) == 1 and grids[0].shape == (4, 2)
    assert np.array_equal(mean, [m for m, _ in expected])
    assert np.array_equal(std_err, [s for _, s in expected])


@pytest.mark.parametrize("basis", ["square2pi", "hex", "mat:1,0.3;0,1.2"])
def test_canonical_half_matches_row_loop(basis):
    from oracles import box_lattice_vectors
    from weyl_lab.cli import parse_manifold

    m = parse_manifold("torus:2:" + basis)
    lam, width = 40.0, 3.0
    # reference: the per-row scan for the first nonzero coefficient over the
    # window's rows in its (norm, lexicographic coeffs) order, from the box
    # enumerator (which takes a 1e-15 relative slack past its radius)
    coeffs, vectors, norms = box_lattice_vectors(m.lattice.dual_basis, lam + width)
    sel = (norms > lam) & (norms <= lam + width)
    coeffs, vectors = coeffs[sel], vectors[sel]
    canonical = np.zeros(coeffs.shape[0], dtype=bool)
    for i, c in enumerate(coeffs):
        nz = c[c != 0]
        canonical[i] = nz.size > 0 and nz[0] > 0
    ref = vectors[canonical]
    assert 0 < ref.shape[0] < vectors.shape[0]

    ens = RandomWaveEnsemble(m, lam, width, seed=1, num_samples=2)
    assert ens.mode_count == 2 * ref.shape[0]
    pts = np.array([[0.0, 0.0], [0.31, -0.7], [1.3, 0.4]])
    phases = ref @ pts.T
    amp = np.sqrt(2.0 / m.lattice.covolume)
    expected = np.empty((2 * ref.shape[0], pts.shape[0]))
    expected[0::2] = amp * np.cos(phases)
    expected[1::2] = amp * np.sin(phases)
    assert np.array_equal(ens.mode_values(pts), expected)


def test_exact_covariance_takes_point_sets_in_one_enumeration(monkeypatch):
    ens = RandomWaveEnsemble(TORUS, 30.0, 1.0, seed=3, num_samples=2)
    xs = np.array([[0.0, 0.0], [0.3, 1.1], [2.0, 0.4]])
    ys = xs + np.array([[0.1, 0.0], [0.05, 0.2], [0.0, 0.3]])
    expected = np.array([exact_covariance(ens, x, y) for x, y in zip(xs, ys)])
    one_to_many = np.array([exact_covariance(ens, xs[0], y) for y in ys])
    passes = record_passes(monkeypatch, TORUS.lattice.dual_basis)
    got = exact_covariance(ens, xs, ys)
    assert got.tobytes() == expected.tobytes()
    assert exact_covariance(ens, xs[0], ys).tobytes() == one_to_many.tobytes()
    # one slab pass per call, no enumeration
    assert passes["dual_vectors"] == []
    assert passes["slabs"] == [31.0, 31.0]
    # a covariance table enumerates the modes' shell once and makes one
    # slab pass for the exact column
    fresh = RandomWaveEnsemble(TORUS, 30.0, 1.0, seed=3, num_samples=2)
    empirical_covariance(fresh, xs, ys)
    assert exact_covariance(fresh, xs, ys).tobytes() == expected.tobytes()
    assert passes["dual_vectors"] == [31.0]
    assert passes["slabs"] == [31.0] * 4
    sphere_ens = RandomWaveEnsemble(SPHERE, 12.5, 1.0, seed=3, num_samples=2)
    north = np.array([0.0, 0.0, 1.0])
    pts = np.array([[np.sin(t), 0.0, np.cos(t)] for t in (0.0, 0.4, 1.3)])
    assert exact_covariance(sphere_ens, north, pts).tobytes() == \
        np.array([exact_covariance(sphere_ens, north, p) for p in pts]).tobytes()


def test_rescaled_covariance_takes_separation_arrays():
    ens = RandomWaveEnsemble(TORUS, 200.0, 1.0, seed=1, num_samples=2)
    x0 = np.array([0.3, 1.1])
    rng = np.random.default_rng(5)
    us = rng.uniform(-2.0, 2.0, (5, 2))
    vs = rng.uniform(-2.0, 2.0, (5, 2))
    got = rescaled_covariance_error(ens, x0, us, vs)
    rows = [rescaled_covariance_error(ens, x0, u, v) for u, v in zip(us, vs)]
    for column, expected in zip(got, zip(*rows)):
        assert column.tobytes() == np.array(expected).tobytes()
    # one u against many v
    got = rescaled_covariance_error(ens, x0, np.zeros(2), vs)
    rows = [rescaled_covariance_error(ens, x0, np.zeros(2), v) for v in vs]
    for column, expected in zip(got, zip(*rows)):
        assert column.tobytes() == np.array(expected).tobytes()
    # any row past the rescaling radius is rejected
    far = vs.copy()
    far[3] = [default_rescaling_radius(200.0) * 1.01, 0.0]
    with pytest.raises(PreconditionError, match=r"\|v\|"):
        rescaled_covariance_error(ens, x0, np.zeros(2), far)


# the out-of-place generator, kept as the reference for the in-place one
def _reference_finalize(z):
    z = (z + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _reference_gaussian_matrix(seed, sample_indices, n_modes):
    samples = np.asarray(sample_indices, dtype=np.uint64).reshape(-1, 1)
    modes = np.arange(n_modes, dtype=np.uint64).reshape(1, -1)
    with np.errstate(over="ignore"):
        base = _reference_finalize(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF))
        key = _reference_finalize(base ^ (samples * np.uint64(0xD1342543DE82EF95)))
        key = _reference_finalize(key ^ (modes * np.uint64(0xAF251AF3B0F025B5)))
        h1 = _reference_finalize(key)
        h2 = _reference_finalize(key ^ np.uint64(0x94D049BB133111EB))
    u1 = ((h1 >> np.uint64(11)) + np.uint64(1)).astype(float) * float(2.0**-53)
    u2 = (h2 >> np.uint64(11)).astype(float) * float(2.0**-53)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@pytest.mark.parametrize("seed,samples,n_modes", [
    (0, np.arange(300), 257), (42, [3, 7, 1999], 5), (2**63 + 5, np.arange(0, 900, 7), 33),
    (-7, [0], 1)], ids=["300x257", "3x5", "large-seed", "negative-seed"])
def test_gaussian_matrix_matches_reference_bitwise(seed, samples, n_modes):
    got = gaussian_matrix(seed, samples, n_modes)
    assert got.tobytes() == _reference_gaussian_matrix(seed, samples, n_modes).tobytes()


def test_gaussian_matrix_peak_memory_is_a_few_results():
    import tracemalloc

    tracemalloc.start()
    try:
        out = gaussian_matrix(5, np.arange(600), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the out-of-place form peaked at about seven result-sized arrays
    assert peak < 3.5 * out.nbytes
    # drawn in row blocks, the temporaries stay within a few blocks
    assert peak - out.nbytes < 4 * 8 * BLOCK_VALUES


def test_wave_grid_never_holds_the_coefficient_matrix():
    import tracemalloc

    ens = RandomWaveEnsemble(TORUS, 200.0, 1.0, seed=3, num_samples=3000)
    pts = np.array([[0.1 * j, 0.2] for j in range(8)])
    ens.mode_values(pts)  # the window's modes, cached before measuring
    tracemalloc.start()
    try:
        waves = sample_wave_grid(ens, None, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = 8 * ens.num_samples * ens.mode_count
    assert peak < 10 * 8 * BLOCK_VALUES < full / 2
    # the blocks cover every sample once, in order
    for s in (0, 1, 408, 409, 2999):
        assert waves[s, 5] == pytest.approx(sample_wave(ens, s, pts[5]), abs=1e-14)
