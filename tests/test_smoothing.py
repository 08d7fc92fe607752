import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from numpy.testing import assert_allclose

import weyl_lab
from oracles import (
    clamped_panel,
    images_on_panel,
    images_rounding_scale,
    mode_sum_projector,
    record_passes,
)
from weyl_lab import lattice as lat
from weyl_lab.cli import parse_manifold
from weyl_lab.errors import DomainError, ResourceLimitError
from weyl_lab.lattice import Lattice, deck_images, dual_vectors
from weyl_lab.manifolds import FlatTorus, spectral_function
from weyl_lab.smoothing import (
    MollifierSpec,
    SmoothedProjector,
    _composite_gauss_legendre,
    fit_h_constant,
    fit_h_decay,
    h_error,
    multiplier,
    multiplier_batch,
    rho_hat,
    sine_integral_table,
    spectral_tail_radius,
)

TORUS = FlatTorus(Lattice.square(2.0 * np.pi))
SPEC = MollifierSpec.for_manifold(TORUS)  # plateau = pi/2, support = 0.9 pi
HEX_SPEC = MollifierSpec.for_manifold(FlatTorus(Lattice.hexagonal(1.0)))


def _quadrature_multiplier(spec, lam, A, taus):
    """Reference m_{lambda,A}: the lambda- and A-specific rule on
    [0, support/A] with ~13 nodes per period of sin(t (lambda + |tau|)),
    validated by panel doubling."""
    taus = np.abs(np.atleast_1d(np.asarray(taus, dtype=float)))
    mus = np.concatenate([lam + taus, np.abs(lam - taus)])
    signs = np.concatenate([np.ones_like(taus), np.sign(lam - taus)])
    T = spec.support / A
    panel = min(16.0 / 13.0 * 2.0 * np.pi / float(np.max(mus)),
                (spec.support - spec.plateau) / A / 6.0, T / 4.0)
    n_panels = int(np.ceil(T / panel))

    def sine_integrals(panels):
        nodes, weights = _composite_gauss_legendre(T, panels)
        base = rho_hat(spec, A * nodes) * weights / nodes
        return np.array([np.sin(mu * nodes) @ base for mu in mus])

    coarse, fine = sine_integrals(n_panels), sine_integrals(2 * n_panels)
    assert np.max(np.abs(fine - coarse)) < 1e-12
    vals = signs * fine
    return (vals[:taus.size] + vals[taus.size:]) / np.pi


def _mpmath_sine_integral(spec, nu):
    """J(nu) = Si(plateau nu) + int_plateau^support rho_hat(u) sin(u nu)/u du
    at the working precision, one piece per half period on the bridge."""
    P, S, nu = mp.mpf(spec.plateau), mp.mpf(spec.support), mp.mpf(nu)

    def integrand(u):
        s = (u - P) / (S - P)
        f_s, f_1ms = mp.exp(-1 / s), mp.exp(-1 / (1 - s))
        return f_1ms / (f_1ms + f_s) * mp.sin(u * nu) / u

    pieces = max(4, int(mp.ceil((S - P) * nu / mp.pi)))
    edges = [P + (S - P) * k / pieces for k in range(pieces + 1)]
    return mp.si(P * nu) + mp.quad(integrand, edges)


def test_mollifier_defaults():
    assert_allclose(SPEC.plateau, np.pi / 2, rtol=1e-14)
    assert_allclose(SPEC.support, 0.9 * np.pi, rtol=1e-14)
    with pytest.raises(DomainError):
        MollifierSpec(plateau=1.0, support=0.5)


def test_rho_hat_shape():
    assert rho_hat(SPEC, 0.0) == 1.0
    assert rho_hat(SPEC, SPEC.plateau) == 1.0
    assert rho_hat(SPEC, SPEC.support) == 0.0
    assert rho_hat(SPEC, 100.0) == 0.0
    mid = 0.5 * (SPEC.plateau + SPEC.support)
    assert_allclose(rho_hat(SPEC, mid), 0.5, rtol=1e-14)  # bridge symmetry
    ts = np.linspace(-5.0, 5.0, 801)
    vals = rho_hat(SPEC, ts)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert_allclose(vals, rho_hat(SPEC, -ts), atol=0)  # even


@pytest.mark.parametrize(
    "lam,A,tau,expected",
    [
        # frozen from a 30-digit mpmath quadrature oracle; the tails are
        # genuinely stretched-exponential, not arbitrarily small
        (10.0, 0.5, 0.0, 0.999677578001),
        (10.0, 0.5, 10.0, 0.500004504643),
        (10.0, 0.5, 30.0, -4.51623472049e-6),
        (20.0, 0.3, 10.0, 1.00000500577),
        (10.0, 0.5, 9.286, 1.08511913738),  # structural Gibbs-type overshoot
    ],
)
def test_multiplier_against_mpmath_oracle(lam, A, tau, expected):
    assert_allclose(multiplier(SPEC, lam, A, tau), expected, rtol=0, atol=2e-10)


@pytest.mark.parametrize("spec", [SPEC, HEX_SPEC], ids=["square", "hex"])
def test_table_matches_quadrature_oracle(spec):
    # 3000 random (lambda, A, tau): per A, 30 lambdas with 25 taus each,
    # spread so that nu = (lambda +- tau)/A falls on both sides of the
    # table's end nu0
    nu0 = sine_integral_table(spec).nu0
    rng = np.random.default_rng(7)
    for A in (1.0, 0.5, 0.25, 0.2):
        lams = rng.uniform(0.05, 0.6 * nu0 * A, 30)
        taus = rng.uniform(0.0, 2.0 * nu0 * A, (30, 25))
        nu_plus = (lams[:, None] + taus) / A
        nu_minus = np.abs(lams[:, None] - taus) / A
        for nu in (nu_plus, nu_minus):
            assert 0.2 < np.mean(nu > nu0) < 0.8
        for lam, row in zip(lams, taus):
            assert_allclose(multiplier_batch(spec, lam, A, row),
                            _quadrature_multiplier(spec, lam, A, row),
                            rtol=0, atol=1e-12, err_msg="lambda=%g A=%g" % (lam, A))


def test_sine_integral_table_against_mpmath():
    table = sine_integral_table(SPEC)
    nus = [0.75, 6.3, 57.1, 290.0]
    got = table(np.array(nus))
    with mp.workdps(30):
        for nu, g in zip(nus, got):
            assert abs(g - float(_mpmath_sine_integral(SPEC, nu))) <= 2e-14, nu
        # past nu0 the table returns pi/2 exactly
        beyond = 1.2 * table.nu0
        assert abs(float(_mpmath_sine_integral(SPEC, beyond)) - np.pi / 2) <= 1e-13
    assert table(np.array([beyond]))[0] == np.pi / 2


def _quadrature_sine_integral(spec, nus):
    """Reference J on a composite rule with ~13 nodes per period of
    sin(u max(nus)), validated by panel doubling."""
    panel = min(16.0 / 13.0 * 2.0 * np.pi / max(float(np.max(nus)), 1.0),
                (spec.support - spec.plateau) / 6.0, spec.support / 4.0)
    n_panels = int(np.ceil(spec.support / panel))

    def sine_integrals(panels):
        nodes, weights = _composite_gauss_legendre(spec.support, panels)
        return np.sin(np.outer(nus, nodes)) @ (rho_hat(spec, nodes) * weights / nodes)

    coarse, fine = sine_integrals(n_panels), sine_integrals(2 * n_panels)
    assert np.max(np.abs(fine - coarse)) < 1e-13
    return fine


def _longdouble_sine_integral(spec, nus):
    """Reference J on the composite rule of `_quadrature_sine_integral`,
    with the sines and the sum in long double (64-bit mantissa on x86), so
    that only the float64 nodes and weights carry double rounding:
    measured within 1.8e-15 of 30-digit mpmath."""
    panel = min(16.0 / 13.0 * 2.0 * np.pi / max(float(np.max(nus)), 1.0),
                (spec.support - spec.plateau) / 6.0, spec.support / 4.0)
    nodes, weights = _composite_gauss_legendre(spec.support, int(np.ceil(spec.support / panel)))
    base = (rho_hat(spec, nodes) * weights).astype(np.longdouble) / nodes
    wide = nodes.astype(np.longdouble)
    return np.concatenate([np.sin(np.multiply.outer(part.astype(np.longdouble), wide)) @ base
                           for part in np.array_split(nus, max(1, nus.size // 256))])


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="long double is float64 here")
@pytest.mark.parametrize("spec", [SPEC, HEX_SPEC], ids=["square", "hex"])
def test_sine_integral_table_against_a_dense_reference(spec):
    # 2000 points across [0, nu0): measured 1.8e-14 (square) and 1.5e-14
    # (hex), both at nu = 0; the reference is checked against mpmath at one
    # point
    table = sine_integral_table(spec)
    nus = np.linspace(0.0, table.nu0, 2001)[:-1]
    reference = _longdouble_sine_integral(spec, nus)
    assert np.max(np.abs(table(nus) - reference.astype(float))) <= 2e-14
    with mp.workdps(30):
        want = _mpmath_sine_integral(spec, float(nus[171]))
    assert abs(float(reference[171] - np.longdouble(mp.nstr(want, 25)))) <= 3e-15


def test_dct2_matches_scipy():
    # pocketfft's DCT-II, with numpy's FFT inside: scipy's values bit for bit
    # on every length up to 200 (prime lengths take pocketfft's Bluestein
    # route), on lengths the J tables use (616, and 1232 after a doubling)
    # and on 2-D input
    from scipy.fft import dct

    from weyl_lab.smoothing import _dct2

    rng = np.random.default_rng(3)
    for n in (*range(1, 201), 616, 1024, 1232, 1601, 2464):
        values = rng.standard_normal((3, n) if n % 7 == 0 else n)
        assert np.array_equal(_dct2(values), dct(values, type=2, axis=-1)), n


@pytest.mark.parametrize("spec", [SPEC, HEX_SPEC], ids=["square", "hex"])
def test_panel_table_at_panel_edges(spec):
    # every panel edge and one ulp either side, 0, nu0 - 1 ulp and nu0:
    # within 1e-12 of the quadrature oracle and 1e-13 of the global series
    table = sine_integral_table(spec)
    n_panels = table.panel_coeffs.shape[1]
    edges = table.nu0 * np.arange(1, n_panels) / n_panels
    nus = np.concatenate([[0.0, np.nextafter(table.nu0, 0.0), table.nu0], edges,
                          np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    got = table(nus)
    assert_allclose(got, _quadrature_sine_integral(spec, nus), rtol=0, atol=1e-12)
    assert np.max(np.abs(got - chebval(2.0 * nus / table.nu0 - 1.0, table.coeffs))) <= 1e-13
    assert got[2] == np.pi / 2
    assert table.panel_error <= 1e-13
    assert not table.panel_coeffs.flags.writeable


def test_table_scalar_and_array_calls_agree_bitwise():
    table = sine_integral_table(SPEC)
    rng = np.random.default_rng(11)
    nus = np.concatenate([rng.uniform(0.0, 1.2 * table.nu0, 300),
                          table.nu0 * np.arange(8) / table.panel_coeffs.shape[1]])
    got = table(nus)
    assert np.array_equal([float(table(nu)) for nu in nus], got)
    assert np.array_equal(table(nus.reshape(4, -1)).ravel(), got)
    taus = rng.uniform(0.0, 40.0, 200)
    batch = multiplier_batch(SPEC, 12.5, 0.4, taus)
    assert np.array_equal([multiplier(SPEC, 12.5, 0.4, t) for t in taus], batch)


def test_sine_integral_table_is_shared_and_validated():
    table = sine_integral_table(SPEC)
    assert sine_integral_table(MollifierSpec(SPEC.plateau, SPEC.support)) is table
    assert max(table.residual, table.trailing, table.tail) <= 1e-13
    assert table.degree >= 0.6 * table.nu0 * SPEC.support


def test_sine_integral_table_not_built_at_import():
    code = ("import weyl_lab.cli, weyl_lab.smoothing as s; "
            "assert s.sine_integral_table.cache_info().currsize == 0")
    src = os.path.dirname(os.path.dirname(weyl_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_multiplier_endpoint_half():
    # the endpoint limit is 1/2 for an even cutoff
    for lam, A in [(10.0, 0.5), (20.0, 1.0), (40.0, 0.25)]:
        assert abs(multiplier(SPEC, lam, A, lam) - 0.5) < 0.01


def test_multiplier_even_in_tau():
    taus = np.array([3.0, 7.5])
    assert_allclose(multiplier_batch(SPEC, 10.0, 0.5, taus),
                    multiplier_batch(SPEC, 10.0, 0.5, -taus), rtol=1e-12)


def test_multiplier_structural_range():
    # m = int rho over a moving window: bounded by 1 + the negative-lobe
    # mass (~0.0851), localized near |tau| ~ lambda; far tails are tiny
    taus = np.linspace(0.0, 40.0, 1500)
    m = multiplier_batch(SPEC, 12.3, 0.5, taus)
    assert m.max() <= 1.09 and m.min() >= -0.09
    far = taus > 12.3 + 0.5 * 35.0
    assert np.all(np.abs(m[far]) < 1e-5)


def test_h_error_indicator_side():
    # h = indicator - m: ~ +-0.5 at tau = lambda, small deep inside/outside
    assert abs(h_error(SPEC, 10.0, 0.5, 10.0) - 0.5) < 0.01
    assert abs(h_error(SPEC, 20.0, 0.3, 10.0)) < 1e-4
    assert abs(h_error(SPEC, 10.0, 0.3, 25.0)) < 1e-5


def test_h_envelope_constants_hold_on_disjoint_grid():
    # constants fitted on the coarse grid are violated by < 5% on a dense
    # disjoint grid (the remainder-function bound, empirically); for N = 6
    # the weighted ratio |h| (1+s)^N peaks near s ~ 36, so the coarse grid
    # must span at least the dense range
    lam, A = 10.0, 0.5
    from weyl_lab.smoothing import default_fit_grid

    dense = np.linspace(0.05, 2.5 * lam, 1000) + 0.0123  # disjoint offsets
    h = h_error(SPEC, lam, A, dense)
    s_dense_max = (2.5 * lam - lam) / A
    for N in (2, 4, 6):
        coarse = default_fit_grid(lam, A, s_max=s_dense_max + 2.0, step=0.25)
        c_n = fit_h_constant(SPEC, lam, A, N, tau_grid=coarse)
        envelope = c_n * (1.0 + np.abs(np.abs(dense) - lam) / A) ** (-float(N))
        assert np.all(np.abs(h) <= 1.05 * envelope), N


def test_h_decay_fit_is_stretched_exponential():
    big_c, c = fit_h_decay(SPEC, 10.0, 0.5)
    assert 0.5 < c < 5.0
    # the fitted model must dominate measured tails (2x safety)
    s = np.array([12.0, 20.0, 28.0])
    h = np.abs(h_error(SPEC, 10.0, 0.5, 10.0 + 0.5 * s))
    assert np.all(h <= 1.05 * big_c * np.exp(-c * np.sqrt(s)))


def test_multiplier_table_build():
    taus = np.linspace(0.0, 30.0, 50)
    values = multiplier_batch(SPEC, 10.0, 0.5, taus)
    assert values.max() <= 1.09 and values.min() >= -0.09
    # deep-inside values are near 1, far-outside near 0
    assert abs(values[0] - 1.0) < 1e-3
    assert abs(values[-1]) < 1e-3
    # the projector keeps its weights on the coefficient box of the tail
    # ball: W[c] = m(|G c|) on every ball coefficient, 0 elsewhere
    sp = SmoothedProjector(TORUS, SPEC, 10.0, 0.5)
    coeffs, _, norms = dual_vectors(TORUS.lattice, sp.tail_radius)
    index = tuple((coeffs + sp._half).T)
    assert np.array_equal(sp._box[index], multiplier_batch(SPEC, 10.0, 0.5, norms))
    outside = np.ones(sp._box.shape, dtype=bool)
    outside[index] = False
    assert np.count_nonzero(outside) > 0 and not np.any(sp._box[outside])


# (manifold, lambda, A, tail_factor): the separable sum is an identity, so a
# shortened 3-D tail keeps the per-mode oracle cheap without weakening it
SEPARABLE_CASES = [
    ("torus:2:square2pi", 10.0, 0.5, 1.0),
    ("torus:2:hex", 12.0, 0.2, 1.0),
    ("torus:2:mat:1,0.3;0,1.2", 10.0, 0.5, 1.0),
    ("torus:3:square2pi", 2.5, 1.0, 0.2),
]


def _oracle_pairs(m, count=3, seed=21):
    # generic pairs, x = y, and a pair that differs by a period vector
    rng = np.random.default_rng(seed)
    xs = (m.lattice.basis @ rng.random((m.dim, count + 2))).T
    ys = (m.lattice.basis @ rng.random((m.dim, count + 2))).T
    ys[count] = xs[count]
    ys[count + 1] = xs[count + 1] + m.lattice.basis @ np.arange(1, m.dim + 1)
    return xs, ys


@pytest.mark.parametrize("case", SEPARABLE_CASES, ids=[c[0] for c in SEPARABLE_CASES])
def test_separable_spectral_sum_matches_per_mode_sum(case):
    name, lam, A, tail_factor = case
    m = parse_manifold(name)
    sp = SmoothedProjector(m, MollifierSpec.for_manifold(m), lam, A, tail_factor=tail_factor)
    xs, ys = _oracle_pairs(m)
    values = sp.spectral(xs, ys)
    assert values.shape == (xs.shape[0],)
    for value, x, y in zip(values, xs, ys):
        want, scale = mode_sum_projector(sp, x, y)
        assert abs(value - want) <= 1e-12 * scale, (x, y)


@pytest.mark.parametrize("case", SEPARABLE_CASES, ids=[c[0] for c in SEPARABLE_CASES])
def test_array_calls_equal_scalar_calls(case):
    # images: bit for bit (row-wise sums, one image at a time per pair);
    # spectral: the batched matrix product may round differently per
    # column, so a few ulps of the sum of |m|
    name, lam, A, tail_factor = case
    m = parse_manifold(name)
    sp = SmoothedProjector(m, MollifierSpec.for_manifold(m), lam, A, tail_factor=tail_factor)
    xs, ys = _oracle_pairs(m, count=1)
    images = sp.images(xs, ys)
    assert images.shape == (xs.shape[0],)
    for value, x, y in zip(images, xs, ys):
        single = sp.images(x, y)
        assert isinstance(single, float) and value == single
    scale = float(np.sum(np.abs(sp._box))) / m.lattice.covolume
    spectral = sp.spectral(xs, ys)
    for value, x, y in zip(spectral, xs, ys):
        single = sp.spectral(x, y)
        assert isinstance(single, float) and abs(value - single) <= 1e-15 * scale
    # a single point pairs with every row of the other
    assert_allclose(sp.spectral(xs[0], ys), [sp.spectral(xs[0], y) for y in ys],
                    rtol=0.0, atol=1e-15 * scale)
    assert np.array_equal(sp.images(xs[0], ys), [sp.images(xs[0], y) for y in ys])
    assert sp.spectral(xs[:0], ys[:0]).shape == sp.images(xs[:0], ys[:0]).shape == (0,)


def test_weight_box_over_cap_raises_before_enumerating(monkeypatch):
    # the box of the lambda 10, A 0.5 tail ball holds (2 * 120 + 1)^2 weights
    passes = record_passes(monkeypatch, TORUS.lattice.dual_basis)
    monkeypatch.setattr(lat, "ENUM_CAP", 58080)
    with pytest.raises(ResourceLimitError, match="holds 58081 coefficients"):
        SmoothedProjector(TORUS, SPEC, 10.0, 0.5)
    assert passes == {"dual_vectors": [], "slabs": []}
    monkeypatch.setattr(lat, "ENUM_CAP", 58081)
    assert SmoothedProjector(TORUS, SPEC, 10.0, 0.5)._box.size == 58081


def test_smoothed_projector_below_first_eigenvalue():
    # only the constant mode carries O(1) weight; value ~ 1/covol within
    # the mollifier leakage (~4% at this lambda/A)
    sp = SmoothedProjector(TORUS, SPEC, 0.5, 0.5)
    x, y = np.array([0.3, 1.1]), np.array([2.0, 0.7])
    val = sp.spectral(x, y)
    assert_allclose(val, 1.0 / TORUS.lattice.covolume, rtol=0.1)
    assert_allclose(sp.images(x, y), val, atol=1e-9)


def test_smoothed_projector_tracks_sharp_projector():
    lam = 10.3
    sp = SmoothedProjector(TORUS, SPEC, lam, 0.5)
    x = np.array([0.3, 1.1])
    sharp = spectral_function(TORUS, lam, x, x)
    assert_allclose(sp.spectral(x, x), sharp, rtol=0.05)


def test_poisson_summation_oracle_small_matrix():
    # spectral and method-of-images routes agree (exact identity; the test
    # measures quadrature + truncation error only)
    rng = np.random.default_rng(99)
    for lam, A in [(5.0, 1.0), (5.0, 0.5)]:
        sp = SmoothedProjector(TORUS, SPEC, lam, A)
        for _ in range(4):
            x = TORUS.lattice.basis @ rng.random(2)
            y = TORUS.lattice.basis @ rng.random(2)
            s, im = sp.spectral(x, y), sp.images(x, y)
            assert abs(s - im) <= 1e-6 * (1.0 + abs(s))


def test_images_empty_beyond_propagation_radius():
    # support/A = 2.83 < min torus distance of this pair: no image can
    # contribute and the spectral side cancels to ~0
    sp = SmoothedProjector(TORUS, SPEC, 5.0, 1.0)
    x, y = np.zeros(2), np.array([np.pi, 2.0])
    assert deck_images(TORUS.lattice, x, y, sp.image_radius).shape == (0, 2)
    assert sp.images(x, y) == 0.0
    assert abs(sp.spectral(x, y)) < 1e-7


def test_identity_image_matches_radial_moment():
    # at x = y the zero image contributes (2 pi)^{-n} S_n(0) int m r^{n-1} dr
    sp = SmoothedProjector(TORUS, SPEC, 5.0, 1.0)
    x = np.array([0.7, 0.2])
    images = deck_images(TORUS.lattice, x, x, sp.image_radius)
    assert images.shape[0] == 1  # support/A < shortest period
    expected = (2.0 * np.pi) ** (-2) * 2.0 * np.pi * float(
        np.sum(sp._m_radial * sp._r_weights * sp._r_nodes))
    assert_allclose(sp.images(x, x), expected, rtol=1e-12)


# (manifold, lambda, A, radial nodes under the band-limit rule, under the
# clamped rule it replaced); the hex, square lambda 200 and skew cases have
# A ~ 1/log lambda or a short cell, where the clamp to A/2 cost the most
RULE_CASES = [
    ("torus:2:square2pi", 12.5, 0.5, 2880, 7872),
    ("torus:2:hex", 12.0, 0.2, 6336, 108656),
    ("torus:2:square2pi", 200.0, 1.0 / np.log(200.0), 14992, 40976),
    ("torus:2:mat:1,0.3;0,1.2", 10.0, 0.5, 5680, 97408),
    ("torus:3:square2pi", 6.5, 0.5, 2720, 7424),
]
RULE_IDS = ["square-12.5", "hex-12", "square-200", "skew-10", "3d-6.5"]


@pytest.fixture(scope="module", params=RULE_CASES, ids=RULE_IDS)
def rule_case(request):
    """(projector, clamped-rule node count, pairs, images, rounding scale),
    built once per case for both rule tests."""
    name, lam, A, nodes, clamped_nodes = request.param
    m = parse_manifold(name)
    sp = SmoothedProjector(m, MollifierSpec.for_manifold(m), lam, A)
    assert sp._r_nodes.size == nodes
    xs, ys = _oracle_pairs(m)
    return sp, clamped_nodes, xs, ys, sp.images(xs, ys), images_rounding_scale(sp, xs, ys)


def test_band_limit_rule_matches_the_clamped_rule(rule_case):
    # the rule's panels hold 16/13 periods of the integrand's top frequency
    # 2 support/A; the old panels were at most A/2 wide.  Both are converged,
    # so they differ by rounding, measured against the moduli the sum adds
    # (at lambda 200 up to ~800 times 1 + |value| off the diagonal): at
    # most 5.4e-15 of them (3-D); panels 5x the rule's width miss by
    # 2.6e-12 to 1.4e-8 of them
    sp, clamped_nodes, xs, ys, new, scale = rule_case
    assert int(np.ceil(sp.tail_radius / clamped_panel(sp))) * 16 == clamped_nodes
    old = images_on_panel(sp, xs, ys, clamped_panel(sp))
    assert np.all(np.abs(new - old) <= 1e-13 * scale)


def test_band_limit_rule_is_converged(rule_case):
    # against panels a quarter as wide: at most 5.2e-15 of the moduli
    sp, _, xs, ys, new, scale = rule_case
    panel = sp.tail_radius / (sp._r_nodes.size // 16)
    finer = images_on_panel(sp, xs, ys, panel / 4.0)
    assert np.all(np.abs(new - finer) <= 1e-13 * scale)


def test_truncation_validated_by_doubling():
    x, y = np.array([0.4, 0.9]), np.array([1.0, 2.0])
    base = SmoothedProjector(TORUS, SPEC, 5.0, 0.5)
    doubled = SmoothedProjector(TORUS, SPEC, 5.0, 0.5, tail_factor=2.0)
    assert abs(base.spectral(x, y) - doubled.spectral(x, y)) < 1e-8
    assert abs(base.images(x, y) - doubled.images(x, y)) < 1e-8


def test_image_count_growth_polynomial():
    # |deck_images(R)| grows like R^n on tori, far below exponential
    x, y = np.zeros(2), np.array([1.0, 0.5])
    counts = {R: deck_images(TORUS.lattice, x, y, R).shape[0] for R in (10.0, 20.0, 40.0)}
    for R in counts:
        continuum = np.pi * R**2 / TORUS.lattice.covolume
        assert counts[R] <= 3.0 * continuum


def test_multiplier_domain_checks():
    with pytest.raises(DomainError):
        multiplier(SPEC, -1.0, 0.5, 0.0)
    with pytest.raises(DomainError):
        multiplier(SPEC, 10.0, 1.5, 0.0)


def test_tail_radius_scales_with_A():
    r1 = spectral_tail_radius(SPEC, 10.0, 1.0)
    r2 = spectral_tail_radius(SPEC, 10.0, 0.5)
    assert r1 > r2 > 10.0
