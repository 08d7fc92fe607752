import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import record_passes
from weyl_lab.analysis import (
    cluster_sup_scan,
    localized_integral,
    localized_sum,
    loglog_fit,
    scan_report,
)
from weyl_lab.errors import DomainError
from weyl_lab.lattice import Lattice
from weyl_lab.manifolds import DerivIndex, FlatTorus, RoundSphere2, spectral_window

TORUS = FlatTorus(Lattice.square(2.0 * np.pi))


def closed_integral(lam, N, p):
    # substitution + binomial expansion gives the model integral in closed form
    if p == 0:
        return (2.0 - lam ** (1.0 - N)) / (N - 1.0)
    if p == 1:
        right = 1.0 / (N - 2.0) + lam / (N - 1.0)
        left = (2.0 + lam) * (1.0 - lam ** (1.0 - N)) / (N - 1.0) - (
            1.0 - lam ** (2.0 - N)
        ) / (N - 2.0)
        return left + right
    if p == 2:
        right = 1.0 / (N - 3.0) + 2.0 * lam / (N - 2.0) + lam**2 / (N - 1.0)
        left = (
            (2.0 + lam) ** 2 * (1.0 - lam ** (1.0 - N)) / (N - 1.0)
            - 2.0 * (2.0 + lam) * (1.0 - lam ** (2.0 - N)) / (N - 2.0)
            + (1.0 - lam ** (3.0 - N)) / (N - 3.0)
        )
        return left + right
    raise ValueError(p)


def test_loglog_fit_identity():
    xs = np.linspace(1.0, 9.0, 12)
    fit = loglog_fit(xs, xs)
    assert_allclose([fit.slope, fit.intercept], [1.0, 0.0], atol=1e-12)
    assert fit.max_abs_residual < 1e-12


def test_loglog_fit_power_law():
    xs = np.geomspace(2.0, 50.0, 9)
    fit = loglog_fit(xs, 3.0 * xs**2)
    assert_allclose(fit.slope, 2.0, atol=1e-12)
    assert_allclose(fit.intercept, np.log(3.0), atol=1e-12)


def test_loglog_fit_noisy_slope():
    rng = np.random.default_rng(5)
    xs = np.geomspace(1.0, 100.0, 40)
    ys = xs * np.exp(rng.normal(0.0, 0.05, xs.size))
    fit = loglog_fit(xs, ys)
    assert 0.9 <= fit.slope <= 1.1


def test_loglog_fit_domain():
    with pytest.raises(DomainError):
        loglog_fit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        loglog_fit([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(DomainError):
        loglog_fit([1.0, 3.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "lam,N,p,expected,tail",
    [
        # frozen brute-force sums over 1e7 terms; `tail` bounds the oracle's
        # own truncation error (integral comparison beyond 1e7)
        (100.0, 4, 0, 1.1646461486654145, 1e-12),
        (1.0, 4, 0, 1.1448232337111379, 1e-12),
        (50.0, 4, 2, 2912.2559194965547, 2e-7),
        (100.0, 2, 0, 2.2800158966370763, 2e-7),
        (57.0, 4, 1, 66.384898179901484, 1e-10),
    ],
)
def test_localized_sum_against_brute_force(lam, N, p, expected, tail):
    assert_allclose(localized_sum(lam, N, p), expected,
                    rtol=1e-11, atol=tail + 1e-12 * max(1.0, lam**p))


def test_localized_sum_zeta_sanity():
    # away from the k >= 0 boundary the sum is close to 1 + 2(zeta(4) - 1);
    # the boundary tail at lam = 100 is ~3e-7, so only a loose comparison holds
    zeta4 = np.pi**4 / 90.0
    assert abs(localized_sum(100.0, 4, 0) - (1.0 + 2.0 * (zeta4 - 1.0))) < 1e-6


def test_localized_sum_shift_invariance():
    # boundary terms decay like lam^{-3}; at lam >= 500 they are below 5e-9
    a, b = localized_sum(500.0, 4, 0), localized_sum(800.0, 4, 0)
    assert abs(a - b) < 5e-9


def test_localized_sum_domain():
    with pytest.raises(DomainError):
        localized_sum(10.0, 1, 0)
    with pytest.raises(DomainError, match="diverges"):
        localized_sum(10.0, 2, 1)  # N - p <= 1 diverges
    with pytest.raises(DomainError):
        localized_sum(0.5, 4, 0)
    with pytest.raises(DomainError, match="p=0.5"):
        localized_sum(10.0, 4, 0.5)


@pytest.mark.parametrize("lam,N,p", [(100.0, 4, 0), (100.0, 4, 2), (7.0, 5, 1), (1.0, 4, 0)])
def test_localized_integral_closed_form(lam, N, p):
    assert_allclose(localized_integral(lam, N, p), closed_integral(lam, N, p),
                    rtol=1e-10)


def test_localized_integral_ratio_bounded():
    val = localized_integral(100.0, 4, 2)
    assert 0.1 < val / 100.0**2 < 10.0


def test_localized_integral_domain():
    # the same domain as localized_sum
    with pytest.raises(DomainError, match="diverges"):
        localized_integral(10.0, 2, 1)
    with pytest.raises(DomainError, match="N must be an integer"):
        localized_integral(10.0, 4.5, 1)
    with pytest.raises(DomainError, match="N must be an integer"):
        localized_integral(10.0, 1, 0)
    with pytest.raises(DomainError, match="p=-1"):
        localized_integral(10.0, 4, -1)
    with pytest.raises(DomainError, match="p=0.5"):
        localized_integral(10.0, 4, 0.5)
    with pytest.raises(DomainError, match="lam"):
        localized_integral(0.5, 4, 0)


@pytest.mark.parametrize("N,p", [(4, 0), (4, 1), (4, 2), (5, 3), (8, 6)])
def test_localized_integral_against_mpmath(N, p):
    # 30-digit quadrature of the integrand, split at r = lam and past it
    for lam in (1.0, 7.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1e4):
        with mp.workdps(30):
            L = mp.mpf(lam)
            f = lambda r: (1 + abs(L - r)) ** (-N) * (1 + r) ** p
            want = mp.quad(f, [1, L]) + mp.quad(f, [L, L + 1, L + 10, L + 100, mp.inf])
            got = localized_integral(lam, N, p)
            assert abs(got - want) <= 1e-14 * want, (lam, N, p)


def test_sum_integral_factor_two():
    for lam in [50.0, 200.0, 800.0]:
        for p in (0, 1, 2):
            s = localized_sum(lam, 4, p)
            i = localized_integral(lam, 4, p)
            assert 0.5 < s / i < 2.0


def sum_ratios(grid, N, p):
    # the boundedness claim: localized sum / lambda^p along a grid
    return np.array([localized_sum(lam, N, p) / lam**p for lam in grid])


def test_ratio_scan_bounded():
    grid = np.unique(np.round(np.geomspace(50, 800, 12))).astype(float)
    ratios = sum_ratios(grid, 4, 2)
    assert ratios.max() / ratios.min() <= 1.5
    ratios0 = sum_ratios(grid, 4, 0)
    assert ratios0.max() / ratios0.min() <= 1.01


def test_ratio_scan_small_N():
    ratios = sum_ratios(np.array([50.0, 110.0, 260.0, 800.0]), 4, 1)
    assert np.all(np.isfinite(ratios))
    assert ratios.max() / ratios.min() < 1.5


def integer_shell_count(lo, hi):
    # integer points k with lo < |k| <= hi (the square 2 pi torus's dual)
    reach = int(hi) + 1
    a, b = np.meshgrid(np.arange(-reach, reach + 1), np.arange(-reach, reach + 1))
    sq = a**2 + b**2
    return int(np.count_nonzero((sq > lo**2) & (sq <= hi**2)))


def test_cluster_sup_scan_equals_shell_counts():
    grid = np.array([20.3, 35.7, 52.1])
    rep = cluster_sup_scan(TORUS, grid, 1.0)
    covol = TORUS.lattice.covolume
    for lam, val in zip(grid, rep.sup_values):
        assert_allclose(val, integer_shell_count(lam, lam + 1.0) / covol, rtol=1e-12)


def test_cluster_sup_scan_one_over_log_normalization():
    grid = np.geomspace(50.0, 300.0, 6)
    rep = cluster_sup_scan(TORUS, grid, "one-over-log")
    assert rep.normalized is not None
    manual = rep.sup_values * np.log(grid) / grid
    assert_allclose(rep.normalized, manual, rtol=1e-14)


def test_cluster_sup_scan_derivative_shift():
    grid = np.geomspace(50.0, 300.0, 8)
    base = cluster_sup_scan(TORUS, grid, 1.0)
    deriv = cluster_sup_scan(TORUS, grid, 1.0, DerivIndex(alpha=(1, 0), beta=(1, 0)))
    assert abs((deriv.fitted_exponent - base.fitted_exponent) - 2.0) < 0.3


def test_cluster_sup_scan_sphere():
    sphere = RoundSphere2()
    grid = np.array([10.2, 20.7, 41.3])
    rep = cluster_sup_scan(sphere, grid, 1.0)
    for lam, val in zip(grid, rep.sup_values):
        total = 0.0
        l = 0
        while np.sqrt(l * (l + 1.0)) <= lam + 1.0:
            if np.sqrt(l * (l + 1.0)) > lam:
                total += (2 * l + 1) / (4.0 * np.pi)
            l += 1
        assert_allclose(val, total, rtol=1e-12)


def test_cluster_sup_scan_validation():
    with pytest.raises(DomainError):
        cluster_sup_scan(TORUS, [10.0, 20.0, 30.0], 1.0, DerivIndex(alpha=(1, 0)))
    with pytest.raises(DomainError):
        cluster_sup_scan(TORUS, [10.0, 20.0, 30.0], "sometimes")
    # 1/log(1) is infinite: a config error, not an enumeration of radius inf
    for grid in ([1.0, 2.0, 3.0], [0.5, 2.0, 3.0]):
        with pytest.raises(DomainError, match="positive and finite"), \
                np.errstate(divide="ignore"):
            cluster_sup_scan(TORUS, grid, "one-over-log")


def test_scan_report_shapes():
    rep = scan_report([1.0, 2.0, 4.0], [2.0, 4.0, 8.0])
    assert_allclose(rep.fitted_exponent, 1.0, atol=1e-12)
    assert rep.normalized is None


def per_lambda_cluster_sup(m, grid, A_rule, d=DerivIndex()):
    # the oracle: a fresh window per lambda
    values = []
    for lam in grid:
        A = 1.0 / np.log(lam) if A_rule == "one-over-log" else float(A_rule)
        win = spectral_window(m, lam, lam + A)
        if isinstance(m, RoundSphere2):
            values.append(np.cumsum(win.mults / m.volume)[-1])
        else:
            alpha, _ = d.padded(m.dim)
            mono = np.ones(win.roots.size)
            for j, a in enumerate(alpha):
                if a:
                    mono = mono * win.vectors[:, j] ** (2 * a)
            values.append(np.sum(mono) / m.lattice.covolume)
    return np.array(values)


@pytest.mark.parametrize("m,grid,A_rule,d", [
    (TORUS, np.geomspace(50.0, 400.0, 8), "one-over-log", DerivIndex()),
    (TORUS, np.geomspace(50.0, 400.0, 8), 1.0, DerivIndex(alpha=(1, 0), beta=(1, 0))),
    (TORUS, np.geomspace(50.0, 400.0, 8), 1.0, DerivIndex(alpha=(0, 1), beta=(0, 1))),
    (FlatTorus(Lattice.hexagonal(1.0)), np.linspace(20.0, 100.0, 5), 8.0, DerivIndex()),
    (RoundSphere2(), np.linspace(50.0, 300.0, 6), 3.0, DerivIndex()),
    (RoundSphere2(6.0), np.linspace(50.0, 300.0, 6), "one-over-log", DerivIndex()),
], ids=["torus-log", "torus-fixed-deriv", "torus-fixed-deriv-last", "hex-fixed",
        "sphere-fixed", "sphere-log"])
def test_cluster_sup_scan_matches_per_lambda_loop(monkeypatch, m, grid, A_rule, d):
    dual_basis = None if isinstance(m, RoundSphere2) else m.lattice.dual_basis
    passes = record_passes(monkeypatch, dual_basis)
    rep = cluster_sup_scan(m, grid, A_rule, d)
    # torus windows are counted on one set of slabs, never enumerated
    assert passes["dual_vectors"] == []
    assert len(passes["slabs"]) == (0 if isinstance(m, RoundSphere2) else 1)
    expected = per_lambda_cluster_sup(m, grid, A_rule, d)
    assert rep.sup_values.tobytes() == expected.tobytes()
