"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Documented fixed choices (grids, pair sets, seeds) live at module level.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from weyl_lab.analysis import cluster_sup_scan, localized_integral, localized_sum
from weyl_lab.cli import main as cli_main
from weyl_lab.cli import seeded_cell_points
from weyl_lab.lattice import Lattice
from weyl_lab.manifolds import DerivIndex, FlatTorus, RoundSphere2, spectral_function
from weyl_lab.projector import cluster_vs_bessel, offdiagonal_scan, remainder_scan
from weyl_lab.randomwaves import (
    RandomWaveEnsemble,
    empirical_covariance,
    exact_covariance,
    rescaled_covariance_error,
)
from weyl_lab.smoothing import (
    MollifierSpec,
    SmoothedProjector,
    default_fit_grid,
    fit_h_constant,
    h_error,
    multiplier,
)
from weyl_lab.specfun import bessel_j, legendre_p

TORUS = FlatTorus(Lattice.square(2.0 * np.pi))
SPHERE = RoundSphere2()
ORIGIN = np.zeros(2)

# documented scan grid: 30 log-spaced points spanning [50, 400], offset by
# 0.5 to stay off the square-torus spectrum (integers are dual norms)
SCAN_GRID = np.geomspace(50.5, 400.5, 30)

# documented off-diagonal pair set: the origin against these points
# (distances >= 1, within one cell)
OFFDIAG_POINTS = np.array([
    [1.0, 0.0],
    [1.3, 0.45],
    [np.pi / 2, np.pi / 2],
    [2.0, 0.7],
    [1.1, 2.3],
    [3.0, 0.2],
])


def report(num, slug, ok, detail):
    print("ACCEPTANCE %d (%s): %s -- %s" % (num, slug, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (slug, detail)


def test_acceptance_1_poisson_parametrix_oracle():
    spec = MollifierSpec.for_manifold(TORUS)
    xs = seeded_cell_points(TORUS.lattice, 20, seed=2024, salt=1)
    ys = seeded_cell_points(TORUS.lattice, 20, seed=2024, salt=2)
    t0 = time.monotonic()
    worst = 0.0
    for lam in (5.0, 10.0, 20.0):
        for a in (1.0, 0.5):
            proj = SmoothedProjector(TORUS, spec, lam, a)
            for x, y in zip(xs, ys):
                s = proj.spectral(x, y)
                im = proj.images(x, y)
                worst = max(worst, abs(s - im) / (1.0 + abs(s)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed <= 120.0
    report(1, "poisson-parametrix-oracle", ok,
           "max |spectral-images|/(1+|spectral|) = %.3e (tol 1e-6), %.1f s (cap 120 s)"
           % (worst, elapsed))


def test_acceptance_2_weyl_remainder_exponents():
    base = remainder_scan(TORUS, SCAN_GRID, ORIGIN, ORIGIN)
    deriv = remainder_scan(TORUS, SCAN_GRID, ORIGIN, ORIGIN,
                           DerivIndex(alpha=(1, 0), beta=(1, 0)))
    shift = deriv.fitted_exponent - base.fitted_exponent
    ok = base.fitted_exponent <= 1.0 and abs(shift - 2.0) <= 0.3
    report(2, "weyl-remainder-exponent", ok,
           "diagonal exponent %.3f (bound 1.0), derivative shift %.3f (2.0 +/- 0.3)"
           % (base.fitted_exponent, shift))


def test_acceptance_3_sphere_jump_sharpness():
    north = np.array([0.0, 0.0, 1.0])
    worst_jump_err = 0.0
    worst_ratio_dev = 0.0
    for l in range(20, 61):
        lam_l = SPHERE.level_sqrt_eigenvalue(l)
        jump = (spectral_function(SPHERE, lam_l + 1e-6, north, north)
                - spectral_function(SPHERE, lam_l - 1e-6, north, north))
        expected = (2 * l + 1) / (4.0 * np.pi)
        worst_jump_err = max(worst_jump_err, abs(jump - expected))
        ratio = (jump / lam_l) * 2.0 * np.pi  # (jump/lam_l) in units of 1/(2 pi)
        worst_ratio_dev = max(worst_ratio_dev, abs(ratio - 1.0))
    ok = worst_jump_err <= 1e-10 and worst_ratio_dev <= 0.1
    report(3, "sphere-zonal-jump", ok,
           "max |jump - (2l+1)/4pi| = %.2e (tol 1e-10); jump/(lam_l/2pi) within "
           "%.4f of 1 (tol 0.1)" % (worst_jump_err, worst_ratio_dev))


def test_acceptance_4_cluster_bessel():
    # torus: averages over the five consecutive unit windows starting at 200
    lam0, width = 200.0, 1.0
    dists = np.linspace(0.0, 8.0, 17) / lam0
    avg_cluster = np.zeros_like(dists)
    avg_pred = np.zeros_like(dists)
    avg_diag = 0.0
    for i in range(5):
        table = cluster_vs_bessel(TORUS, lam0 + i, width, ORIGIN, dists)
        avg_cluster += table.cluster / 5.0
        avg_pred += table.bessel_prediction / 5.0
        avg_diag += table.diagonal / 5.0
    torus_err = float(np.max(np.abs(avg_cluster - avg_pred)))
    torus_ok = torus_err <= 0.1 * avg_diag

    # sphere: single level l = 50 against the Bessel profile
    l = 50
    lam_l = SPHERE.level_sqrt_eigenvalue(l)
    thetas = np.linspace(0.0, 8.0 / lam_l, 33)
    cluster = (2 * l + 1) / (4.0 * np.pi) * legendre_p(l, np.cos(thetas))
    pred = lam_l / (2.0 * np.pi) * bessel_j(0, lam_l * thetas)
    sphere_err = float(np.max(np.abs(cluster - pred)))
    sphere_ok = sphere_err <= 0.05 * (2 * l + 1) / (4.0 * np.pi)

    report(4, "cluster-vs-bessel", torus_ok and sphere_ok,
           "torus max avg err %.4f (tol %.4f); sphere l=50 max err %.4f (tol %.4f)"
           % (torus_err, 0.1 * avg_diag, sphere_err,
              0.05 * (2 * l + 1) / (4.0 * np.pi)))


def test_acceptance_5_offdiagonal_decay():
    rep = offdiagonal_scan(TORUS, SCAN_GRID, 1.0, ORIGIN, OFFDIAG_POINTS)
    ok = rep.fitted_exponent <= 0.75
    report(5, "offdiagonal-decay", ok,
           "fitted exponent %.3f (bound 0.75; flat model ~0.5)" % rep.fitted_exponent)


def test_acceptance_6_mollifier_bounds():
    spec = MollifierSpec.for_manifold(TORUS)
    worst_violation = 0.0
    worst_half = 0.0
    for lam in (10.0, 40.0):
        for a in (1.0, 0.5, 0.25):
            worst_half = max(worst_half, abs(multiplier(spec, lam, a, lam) - 0.5))
            dense = np.linspace(0.013, 2.5 * lam, 1000) + 0.0061 * a  # disjoint
            h = h_error(spec, lam, a, dense)
            s = np.abs(np.abs(dense) - lam) / a
            for n_exp in (2, 4):
                c_n = fit_h_constant(spec, lam, a, n_exp,
                                     tau_grid=default_fit_grid(lam, a))
                envelope = c_n * (1.0 + s) ** (-float(n_exp))
                violation = float(np.max(np.abs(h) / envelope)) - 1.0
                worst_violation = max(worst_violation, violation)
    ok = worst_violation < 0.05 and worst_half <= 0.01
    report(6, "mollifier-h-bounds", ok,
           "worst envelope violation %.3f%% (tol 5%%); max |m(lambda)-1/2| = %.4f "
           "(tol 0.01)" % (100.0 * worst_violation, worst_half))


def test_acceptance_7_random_waves():
    ens = RandomWaveEnsemble(TORUS, 200.0, 1.0, seed=42, num_samples=5000)
    x0 = np.array([0.3, 1.1])
    pairs = [(x0, x0 + j * np.array([0.035, 0.0])) for j in range(10)]
    worst_z = 0.0
    for x, y in pairs:
        emp, se = empirical_covariance(ens, x, y)
        worst_z = max(worst_z, abs(emp - exact_covariance(ens, x, y)) / se)
    mc_ok = worst_z <= 4.0

    seps = np.linspace(0.0, 5.0, 21)
    errs = [rescaled_covariance_error(ens, ORIGIN, ORIGIN,
                                      np.array([sep, 0.0]))[2] for sep in seps]
    rescaled_ok = max(errs) <= 0.05

    trend_seps = np.linspace(0.25, 3.5, 14)  # inside the lam=50 radius

    def trend_err(lam):
        e = RandomWaveEnsemble(TORUS, lam, 1.0, seed=42, num_samples=2)
        return max(rescaled_covariance_error(e, ORIGIN, ORIGIN,
                                             np.array([sep, 0.0]))[2]
                   for sep in trend_seps)

    e50, e400 = trend_err(50.0), trend_err(400.0)
    trend_ok = e400 < e50
    report(7, "random-wave-covariance", mc_ok and rescaled_ok and trend_ok,
           "max |z| = %.2f (tol 4); max rescaled err %.4f (tol 0.05); "
           "err(400)=%.4f < err(50)=%.4f: %s"
           % (worst_z, max(errs), e400, e50, trend_ok))


def test_acceptance_8_appendix_a_ratios():
    # documented grid: log-spaced integers (fixed fractional part isolates
    # the growth claim; the normalized sums oscillate with frac(lambda))
    grid = np.unique(np.round(np.geomspace(50, 800, 16))).astype(float)
    worst_spread = 0.0
    worst_factor = 0.0
    for p in (0, 1, 2):
        ratios, factors = [], []
        for lam in grid:
            s = localized_sum(float(lam), 4, p)
            integ = localized_integral(float(lam), 4, p)
            ratios.append(s / float(lam) ** p)
            factors.append(s / integ)
        worst_spread = max(worst_spread, max(ratios) / min(ratios))
        worst_factor = max(worst_factor, max(max(factors), 1.0 / min(factors)))
    ok = worst_spread <= 1.5 and worst_factor <= 2.0
    report(8, "appendix-a-localized-sums", ok,
           "worst ratio spread %.3f (tol 1.5); worst sum/integral factor %.3f (tol 2)"
           % (worst_spread, worst_factor))


def test_acceptance_9_cluster_sup_log_rule():
    grid = np.geomspace(50.0, 800.0, 20)  # documented grid
    rep = cluster_sup_scan(TORUS, grid, "one-over-log")
    spread = float(rep.normalized.max() / rep.normalized.min())
    deriv = cluster_sup_scan(TORUS, grid, "one-over-log",
                             DerivIndex(alpha=(1, 0), beta=(1, 0)))
    shift = deriv.fitted_exponent - rep.fitted_exponent
    ok = spread <= 2.0 and abs(shift - 2.0) <= 0.3
    report(9, "cluster-sup-log-window", ok,
           "normalized max/min %.3f (tol 2.0); derivative shift %.3f (2.0 +/- 0.3)"
           % (spread, shift))


CLI_REPLAY_CASES = [
    ["eigens", "--manifold", "torus:2:square2pi", "--lambda-grid", "0:10:1"],
    ["kernel", "--manifold", "sphere2", "--lambda", "1.5"],
    ["remainder-scan", "--manifold", "torus:2:square2pi",
     "--lambda-grid", "30.3:60.3:4:log", "--pairs", "3", "--seed", "5"],
    ["offdiag-scan", "--manifold", "torus:2:square2pi",
     "--lambda-grid", "30.3:60.3:4:log", "--eps", "1.0", "--pairs", "3", "--seed", "5"],
    ["smooth-compare", "--manifold", "torus:2:square2pi", "--lambda-grid", "3:3:1",
     "--A", "1.0,0.5", "--pairs", "2", "--seed", "5"],
    ["cluster-bessel", "--manifold", "torus:2:square2pi", "--lambda", "30",
     "--width", "1.0", "--dist-grid", "0:0.2:5"],
    ["randomwave", "--manifold", "torus:2:square2pi", "--mode", "covariance",
     "--lambda", "20.3", "--samples", "150", "--dist-grid", "0:0.2:3", "--seed", "9"],
    ["appendix-a", "--lambda-grid", "50:200:3:log", "--N", "4", "--p", "0,1"],
    ["cluster-sup", "--manifold", "torus:2:square2pi",
     "--lambda-grid", "30.3:90.3:4:log", "--A-rule", "one-over-log"],
]


def test_acceptance_10_manifest_replay(tmp_path):
    runner = CliRunner()
    all_ok = True
    details = []
    for case in CLI_REPLAY_CASES:
        name = case[0]
        first = tmp_path / name / "run"
        second = tmp_path / name / "replay"
        res = runner.invoke(cli_main, case + ["--out", str(first)],
                            catch_exceptions=False)
        assert res.exit_code == 0, res.output
        manifest = first / (name + ".manifest.json")
        res2 = runner.invoke(cli_main, ["replay", str(manifest), "--out", str(second)],
                             catch_exceptions=False)
        assert res2.exit_code == 0, res2.output
        same = (first / (name + ".csv")).read_bytes() == \
            (second / (name + ".csv")).read_bytes()
        all_ok &= same
        details.append("%s=%s" % (name, "ok" if same else "DIFF"))
    report(10, "manifest-replay-reproducibility", all_ok, ", ".join(details))
