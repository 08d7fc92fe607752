import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval
from numpy.testing import assert_allclose

import weyl_lab
from oracles import (
    JREF_TOL,
    box_lattice_vectors,
    canonical_half,
    chebyshev_coefficients,
    clamped_panel,
    full_ball_box,
    images_on_panel,
    images_rounding_scale,
    jref_module_text,
    mode_sum_projector,
    per_step_panel_eval,
    record_passes,
    reference_j_table,
    stretched_projector,
    sub_panel_error,
    taylor_sub_panels,
)
from weyl_lab import _jref_table
from weyl_lab import lattice as lat
from weyl_lab import smoothing
from weyl_lab.cli import parse_manifold
from weyl_lab.errors import DomainError, ResourceLimitError
from weyl_lab.lattice import Lattice, deck_images
from weyl_lab.manifolds import FlatTorus, spectral_function
from weyl_lab.smoothing import (
    _GL_NODES,
    _GL_REACH,
    _SUB_DEGREE,
    _SUB_PANELS,
    MollifierSpec,
    SmoothedProjector,
    _composite_gauss_legendre,
    _horner_eval,
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
SKEW_SPEC = MollifierSpec.for_manifold(parse_manifold("torus:2:mat:1,0.9;0,0.2"))
DIAG_SPEC = MollifierSpec.for_manifold(parse_manifold("torus:3:diag:6.283,7.1,8.86"))
# the checked-in J_ref panel table: (25, 77)
PANELS = np.array(_jref_table.PANEL_COEFFS)


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
    for support in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            MollifierSpec(support=support)
    # one settable field: the plateau is 5/9 of the support
    assert [f.name for f in dataclasses.fields(MollifierSpec)] == ["support"]
    with pytest.raises(AttributeError):
        SPEC.plateau = 1.0


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


@pytest.mark.parametrize("spec", [SPEC, HEX_SPEC, SKEW_SPEC, DIAG_SPEC],
                         ids=["square", "hex", "skew", "diag-3d"])
def test_table_matches_quadrature_oracle(spec):
    # 3000 random (lambda, A, tau): per A, 30 lambdas with 25 taus each,
    # spread so that nu = (lambda +- tau)/A falls on both sides of the
    # spec's table end nu0 / support.  The oracle integrates the spec's own
    # cutoff, so this checks J(nu) = J_ref(support nu) as well
    nu0 = sine_integral_table().nu0 / spec.support
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
    # square 2pi's J(nu) read from the reference table at support nu
    table = sine_integral_table()
    nus = [0.75, 6.3, 57.1, 290.0]
    got = table(SPEC.support * np.array(nus))
    with mp.workdps(30):
        for nu, g in zip(nus, got):
            assert abs(g - float(_mpmath_sine_integral(SPEC, nu))) <= 2e-14, nu
        # past nu0 the table returns pi/2 exactly
        beyond = 1.2 * table.nu0 / SPEC.support
        assert abs(float(_mpmath_sine_integral(SPEC, beyond)) - np.pi / 2) <= 1e-13
    assert table(np.array([SPEC.support * beyond]))[0] == np.pi / 2


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
    # 2000 points across [0, nu0), and the last 1/2000 of it at
    # nu0 (1 - 10^-k), k = 4..9, and one ulp below nu0, read from the
    # reference table and held against the spec's own J at nu / support:
    # measured 1.3e-14 on both, at nu = 0, and at most 2.2e-15 (square) and
    # 1.6e-15 (hex) on those last points; the reference is checked against
    # mpmath at one point
    table = sine_integral_table()
    nus = np.concatenate([np.linspace(0.0, table.nu0, 2001)[:-1],
                          table.nu0 * (1.0 - 10.0 ** -np.arange(4.0, 10.0)),
                          [np.nextafter(table.nu0, 0.0)]])
    spec_nus = nus / spec.support
    reference = _longdouble_sine_integral(spec, spec_nus)
    assert np.max(np.abs(table(nus) - reference.astype(float))) <= 2e-14
    with mp.workdps(30):
        want = _mpmath_sine_integral(spec, float(spec_nus[171]))
    assert abs(float(reference[171] - np.longdouble(mp.nstr(want, 25)))) <= 3e-15


@pytest.fixture(scope="module")
def reference():
    """The J_ref table rebuilt by quadrature, DCT and global series:
    (coeffs, panel_coeffs, record)."""
    return reference_j_table()


def test_checked_in_panel_table_matches_the_quadrature_rebuild(reference):
    # bit equality with a rebuild is not portable (BLAS and libm move the
    # rebuild's last bits across hosts), so the gap is held to the 1e-13
    # validation tolerance: measured 0 on x86-64 with numpy 2.4 and OpenBLAS
    coeffs, panels, record = reference
    assert _jref_table.NU0 == 945.0
    assert PANELS.shape == panels.shape == (25, 77)
    assert np.max(np.abs(PANELS - panels)) <= JREF_TOL
    # the writer's float literals read back with the rebuild's bits
    written = {}
    exec(jref_module_text(coeffs, panels, record), written)
    assert written["NU0"] == _jref_table.NU0
    assert np.array(written["PANEL_COEFFS"]).tobytes() == panels.tobytes()


def test_reference_build_validates(reference):
    # panel doubling, trailing coefficients and |J - pi/2| past nu0:
    # measured 4.7e-15, 2.1e-16 and 1.1e-14
    coeffs, _, record = reference
    assert record["degree"] == coeffs.size - 1 == 615
    assert record["degree"] >= 0.6 * _jref_table.NU0
    assert record["panels"] == 360
    assert max(record["residual"], record["trailing"], record["tail"]) <= JREF_TOL


def test_sub_coeffs_bits_are_pinned():
    # the sub-panels come from the checked-in table by elementwise + - * /
    # alone, so J has these bits on every host
    sub = sine_integral_table().sub_coeffs
    assert sub.shape == (_SUB_DEGREE + 1, _SUB_PANELS * PANELS.shape[1]) == (9, 1540)
    digest = hashlib.sha256(sub.astype("<f8").tobytes()).hexdigest()
    assert digest == "3585a5d37c517c57ec06f97b60ea086ef109b0fc8695d7875ba79b799d7020c0"


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="long double is float64 here")
def test_chebyshev_coefficients_against_the_dct_sum():
    # the DCT-II's defining sum over n, c_0 halved, with the angles and the
    # sum in long double: on every length up to 40, on odd and prime
    # lengths, on the J table's length (616) and twice it
    # and on 2-D input, measured within 1.2e-15 of max |c| (seeds 0-7)
    rng = np.random.default_rng(3)
    pi = np.arccos(np.longdouble(-1.0))
    for n in (*range(1, 41), 97, 199, 616, 1232):
        values = rng.standard_normal((3, n) if n % 7 == 0 else n)
        k = np.arange(n)
        cosines = np.cos(pi * np.multiply.outer(k, 2 * k + 1).astype(np.longdouble) / (2 * n))
        want = 2 * (values.astype(np.longdouble) @ cosines.T) / n
        want[..., 0] /= 2
        got = chebyshev_coefficients(values)
        assert got.shape == values.shape, n
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want)), n


@pytest.mark.parametrize("spec", [SPEC, HEX_SPEC], ids=["square", "hex"])
def test_panel_table_at_panel_edges(reference, spec):
    # every panel edge and one ulp either side, 0, nu0 - 1 ulp and nu0:
    # within 1e-12 of the spec's quadrature oracle at nu / support and
    # 1e-13 of the global series
    table = sine_integral_table()
    n_panels = PANELS.shape[1]
    edges = table.nu0 * np.arange(1, n_panels) / n_panels
    nus = np.concatenate([[0.0, np.nextafter(table.nu0, 0.0), table.nu0], edges,
                          np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    got = table(nus)
    want = _quadrature_sine_integral(spec, nus / spec.support)
    assert_allclose(got, want, rtol=0, atol=1e-12)
    assert np.max(np.abs(got - chebval(2.0 * nus / table.nu0 - 1.0, reference[0]))) <= 1e-13
    assert got[2] == np.pi / 2


def _sub_panel_probes(table, rng, spec):
    """Random nu in every sub-panel, every sub-panel edge, one ulp either
    side of it and as the spec's multipliers reach it (support (edge /
    support)), 0 and nu0 - 1 ulp."""
    count = table.sub_coeffs.shape[1]
    edges = table.nu0 * np.arange(1, count) / count
    return np.concatenate([
        ((np.arange(count) + rng.uniform(0.0, 1.0, (3, count))) * table.nu0 / count).ravel(),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        spec.support * (edges / spec.support), [0.0, np.nextafter(table.nu0, 0.0)]])


@pytest.mark.parametrize("spec", [SPEC, HEX_SPEC], ids=["square", "hex"])
def test_sub_panel_table_against_the_panel_oracle(spec):
    # the Horner sub-panels follow the Clenshaw panels they are cut from:
    # measured 4.0e-15 on both
    table = sine_integral_table()
    nus = _sub_panel_probes(table, np.random.default_rng(41), spec)
    want = per_step_panel_eval(PANELS, table.nu0, nus)
    assert np.max(np.abs(table(nus) - want)) <= 1e-14
    assert not table.sub_coeffs.flags.writeable
    with pytest.raises(ValueError):
        table.sub_coeffs[0, 0] = 0.0


@pytest.mark.parametrize("degree", [9, 12, 16])
def test_sub_panel_check_catches_a_bad_panel_table(degree):
    # the sub-panels stay within rounding of the panels they are cut from,
    # so panels too short to follow the global series fail the one check:
    # 2.6e-4, 9.2e-7 and 7.9e-10 from it at degrees 9, 12 and 16 (measured)
    coeffs, panels, _ = reference_j_table(panel_degree=degree)
    assert sub_panel_error(smoothing._sub_panel_polynomials(panels), coeffs) > JREF_TOL


@pytest.mark.parametrize("spec", [SPEC, HEX_SPEC], ids=["square", "hex"])
def test_sub_panel_table_against_the_taylor_oracle(spec):
    # the same Chebyshev truncation reached through numpy's chebder and
    # chebval at the sub-panel centres and cheb2poly's economization:
    # coefficients and values within 1.1e-15 on both (measured)
    table = sine_integral_table()
    oracle = taylor_sub_panels(PANELS, _SUB_PANELS, _SUB_DEGREE)
    assert np.max(np.abs(table.sub_coeffs - oracle)) <= 4e-15
    nus = _sub_panel_probes(table, np.random.default_rng(43), spec)
    assert np.max(np.abs(table(nus) - _horner_eval(oracle, table.nu0, nus))) <= 4e-15


@pytest.mark.parametrize("spec", [SPEC, HEX_SPEC], ids=["square", "hex"])
def test_horner_eval_in_blocks_equals_one_block(monkeypatch, spec):
    # blocks of 7 columns with a remainder give every value its bits
    table = sine_integral_table()
    nus = _sub_panel_probes(table, np.random.default_rng(47), spec)
    want = _horner_eval(table.sub_coeffs, table.nu0, nus)
    assert want.size <= smoothing._BLOCK_VALUES // (_SUB_DEGREE + 1)
    monkeypatch.setattr(smoothing, "_BLOCK_VALUES", 7 * (_SUB_DEGREE + 1) + 3)
    assert _horner_eval(table.sub_coeffs, table.nu0, nus).tobytes() == want.tobytes()
    assert nus.size % 7 and _horner_eval(table.sub_coeffs, table.nu0, nus[:0]).size == 0
    assert table(nus).tobytes() == want.tobytes()


def test_table_past_nu0_and_non_finite_is_half_pi():
    # nan, inf, nu0 and beyond return pi/2 exactly, next to inside values,
    # and no RuntimeWarning (an error in this suite) comes from the gather
    table = sine_integral_table()
    nus = np.array([np.nan, 0.5 * table.nu0, np.inf, table.nu0, 3.0 * table.nu0])
    got = table(nus)
    assert np.array_equal(got[[0, 2, 3, 4]], np.full(4, 0.5 * np.pi))
    assert got[1] == table(np.array([0.5 * table.nu0]))[0]
    assert table(np.array([np.nan]))[0] == 0.5 * np.pi


def test_table_refuses_negative_nu():
    # J is odd, but the table holds only [0, nu0], and its first
    # sub-panel's polynomial read at -5 gives 630.7 where J = -1.581: a
    # negative nu is refused, naming the first one, in the all-inside path
    # and next to nan, inf and nu past nu0
    table = sine_integral_table()
    for nus in ([1.0, -5.0, -1.0], [np.nan, 2.0 * table.nu0, -5.0, np.inf, -50.0], -5.0,
                [[3.0, 4.0], [-5.0, -np.inf]]):
        with pytest.raises(DomainError, match=r"nu=-5\.0$"):
            table(nus)
    with pytest.raises(DomainError, match="nu=-inf"):
        table([-np.inf, 1.0])
    assert table(-0.0) == table(0.0)


def test_table_scalar_and_array_calls_agree_bitwise():
    table = sine_integral_table()
    rng = np.random.default_rng(11)
    nus = np.concatenate([rng.uniform(0.0, 1.2 * table.nu0, 300),
                          table.nu0 * np.arange(8) / PANELS.shape[1]])
    got = table(nus)
    assert np.array_equal([float(table(nu)) for nu in nus], got)
    assert np.array_equal(table(nus.reshape(4, -1)).ravel(), got)
    taus = rng.uniform(0.0, 40.0, 200)
    batch = multiplier_batch(SPEC, 12.5, 0.4, taus)
    assert np.array_equal([multiplier(SPEC, 12.5, 0.4, t) for t in taus], batch)


def test_sine_integral_table_is_shared_and_validated(reference):
    # multipliers on square, hex and 3-D tori read one table, whose
    # sub-panels stay within 1e-13 of the global series on the panel edges,
    # midpoints and one ulp either side of every sub-panel edge (measured
    # 2.1e-14)
    for name in ("torus:2:square2pi", "torus:2:hex", "torus:3:square2pi"):
        multiplier(MollifierSpec.for_manifold(parse_manifold(name)), 10.0, 0.5, 3.0)
    assert sine_integral_table.cache_info().currsize == 1
    table = sine_integral_table()
    assert sine_integral_table() is table
    assert sub_panel_error(table.sub_coeffs, reference[0]) <= JREF_TOL


def test_sine_integral_table_not_built_at_import():
    # nor is the checked-in table's module imported
    code = ("import sys, weyl_lab.cli, weyl_lab.smoothing as s; "
            "assert s.sine_integral_table.cache_info().currsize == 0; "
            "assert 'weyl_lab._jref_table' not in sys.modules")
    src = os.path.dirname(os.path.dirname(weyl_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


TABLE_MANIFOLDS = ["torus:2:square2pi", "torus:2:hex", "torus:2:mat:1,0.9;0,0.2",
                   "torus:3:square2pi"]


@pytest.mark.parametrize("name", TABLE_MANIFOLDS)
def test_blocked_sine_integral_table_equals_the_unblocked_build(name):
    # the manifold's multipliers read the one J_ref table at
    # (lambda +- tau) support / A, bit for bit
    table = sine_integral_table()
    spec = MollifierSpec.for_manifold(parse_manifold(name))
    lam, A = 10.0, 0.5
    taus = np.linspace(0.0, 3.0 * lam, 301)
    scale = spec.support / A
    want = (table((lam + taus) * scale)
            + np.sign(lam - taus) * table(np.abs(lam - taus) * scale)) / np.pi
    assert multiplier_batch(spec, lam, A, taus).tobytes() == want.tobytes()


def test_radial_rule_refusal_allocates_nothing():
    # A = 1e-9 asks for 7.2e10 radial nodes: refused with the table built
    # and nothing of the rule's size allocated (its nodes alone are 538 GiB)
    sine_integral_table()  # built before the measurement
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="holds 72181065104 nodes"):
            SmoothedProjector(TORUS, SPEC, 12.5, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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
    # the projector keeps its weights on the half box of the tail ball:
    # W[c] = m(|G c|) on every coefficient of the ball's canonical half
    # (the origin and the c whose first nonzero entry is positive), 0
    # elsewhere, at box index (c_1, c_2 + M_2)
    sp = SmoothedProjector(TORUS, SPEC, 10.0, 0.5)
    coeffs, _, norms = box_lattice_vectors(TORUS.lattice.dual_basis, sp.tail_radius)
    half = canonical_half(coeffs)
    coeffs, norms = coeffs[half], norms[half]
    index = (coeffs[:, 0], coeffs[:, 1] + sp._half[1])
    assert np.array_equal(sp._box[index], multiplier_batch(SPEC, 10.0, 0.5, norms))
    outside = np.ones(sp._box.shape, dtype=bool)
    outside[index] = False
    assert np.count_nonzero(outside) > 0 and not np.any(sp._box[outside])


# (manifold, lambda, A, tail factor of `stretched_projector`): the separable
# sum is an identity, so a shortened 3-D tail keeps the per-mode oracle cheap
# without weakening it
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
    name, lam, A, stretch = case
    m = parse_manifold(name)
    sp = stretched_projector(m, MollifierSpec.for_manifold(m), lam, A, stretch)
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
    name, lam, A, stretch = case
    m = parse_manifold(name)
    sp = stretched_projector(m, MollifierSpec.for_manifold(m), lam, A, stretch)
    xs, ys = _oracle_pairs(m, count=1)
    images = sp.images(xs, ys)
    assert images.shape == (xs.shape[0],)
    for value, x, y in zip(images, xs, ys):
        single = sp.images(x, y)
        assert isinstance(single, float) and value == single
    # the sum of |m| over the ball: twice the half box's, less the origin's
    origin = abs(sp._box[(0, *sp._half[1:])])
    scale = (2.0 * float(np.sum(np.abs(sp._box))) - origin) / m.lattice.covolume
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
    # the half box of the lambda 10, A 0.5 tail ball holds (120 + 1)
    # (2 * 120 + 1) weights, half the whole box's 58081 rounded up
    passes = record_passes(monkeypatch, TORUS.lattice.dual_basis)
    monkeypatch.setattr(lat, "ENUM_CAP", 29160)
    with pytest.raises(ResourceLimitError, match="half .* holds 29161 coefficients"):
        SmoothedProjector(TORUS, SPEC, 10.0, 0.5)
    assert passes["dual_vectors"] == []
    assert passes["slabs"] == []
    monkeypatch.setattr(lat, "ENUM_CAP", 29161)
    assert SmoothedProjector(TORUS, SPEC, 10.0, 0.5)._box.size == 29161


# (manifold, lambda, A, tail factor of `stretched_projector`), each ball
# well over three shells of 2**14 rows
SHELL_CASES = [("torus:2:square2pi", 12.5, 0.5, 1.0), ("torus:3:square2pi", 2.5, 1.0, 0.2)]


@pytest.mark.parametrize("case", SHELL_CASES, ids=["2d", "3d"])
def test_shelled_weight_box_equals_one_shell(monkeypatch, case):
    name, lam, A, stretch = case
    m = parse_manifold(name)
    spec = MollifierSpec.for_manifold(m)
    passes = record_passes(monkeypatch, m.lattice.dual_basis)
    one = stretched_projector(m, spec, lam, A, stretch)
    assert passes["dual_vectors"] == [one.tail_radius]
    passes["dual_vectors"].clear()
    monkeypatch.setattr(smoothing, "_SHELL_ROWS", 2**14)
    shelled = stretched_projector(m, spec, lam, A, stretch)
    radii = passes["dual_vectors"]
    assert len(radii) >= 3 and radii == sorted(radii) and radii[-1] == shelled.tail_radius
    assert shelled._box.tobytes() == one._box.tobytes()
    xs, ys = _oracle_pairs(m)
    assert shelled.spectral(xs, ys).tobytes() == one.spectral(xs, ys).tobytes()
    assert shelled.images(xs, ys).tobytes() == one.images(xs, ys).tobytes()


def test_shelled_build_memory(monkeypatch):
    # besides the box, a build holds one shell's rows: measured 170 bytes a
    # shell row here, against 42 MiB over the box for the one-shell build
    name, lam, A, stretch = SHELL_CASES[1]
    m = parse_manifold(name)
    spec = MollifierSpec.for_manifold(m)
    sine_integral_table()  # built before the measurement
    monkeypatch.setattr(smoothing, "_SHELL_ROWS", 2**14)
    tracemalloc.start()
    try:
        sp = stretched_projector(m, spec, lam, A, stretch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sp._box.nbytes + 256 * smoothing._SHELL_ROWS


def test_3d_build_peak_over_the_box():
    # square 2 pi, lambda 6.5, A 0.5 (seven half shells, a 47 MiB box):
    # measured 34.6 MiB over the box with the shells' rows in walk order,
    # 41.8 MiB when every shell was sorted by norm and its rows gathered
    m = parse_manifold("torus:3:square2pi")
    spec = MollifierSpec.for_manifold(m)
    sine_integral_table()  # built before the measurement
    tracemalloc.start()
    try:
        sp = SmoothedProjector(m, spec, 6.5, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sp._box.nbytes < 38 * 2**20


def test_3d_smooth_compare_peak_rss(tmp_path):
    # the child's own peak resident set, the VmHWM of the memory it maps
    # once exec'd: 128 MiB with the half box, 182 MiB with the whole box,
    # 258 MiB with whole shells, 916 MiB when the whole tail ball was
    # enumerated at once.  wait4's ru_maxrss cannot tell: the exec carries
    # over the spawning process's peak, pytest's own in a full run (290 MiB)
    src = os.path.dirname(os.path.dirname(weyl_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    status = tmp_path / "status"
    # the CLI run as `python -m` runs it, its /proc status kept on the way out
    wrapper = ("import runpy\n"
               "try:\n"
               "    runpy.run_module('weyl_lab.cli', run_name='__main__', alter_sys=True)\n"
               "finally:\n"
               "    with open('/proc/self/status') as f, open(%r, 'w') as out:\n"
               "        out.write(f.read())\n" % str(status))
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, "smooth-compare",
         "--manifold", "torus:3:square2pi", "--lambda-grid", "6.5:6.5:1", "--A", "0.5",
         "--pairs", "3", "--out", str(tmp_path / "out")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    fields = dict(line.split(":", 1) for line in status.read_text().splitlines())
    assert int(fields["VmHWM"].split()[0]) < 160 * 1024  # kB


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
    ("torus:2:square2pi", 12.5, 0.5, 1424, 7872),
    ("torus:2:hex", 12.0, 0.2, 3136, 108656),
    ("torus:2:square2pi", 200.0, 1.0 / np.log(200.0), 7408, 40976),
    ("torus:2:mat:1,0.3;0,1.2", 10.0, 0.5, 2800, 97408),
    ("torus:3:square2pi", 6.5, 0.5, 1344, 7424),
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
    # the rule's panels are _GL_REACH / T wide, where the 16-node
    # Gauss-Legendre error bound for the integrand's type 2T, T = support/A,
    # reaches 2^-53; the old panels were at most A/2 wide.  Both are
    # converged, so they differ by rounding, measured against the moduli
    # the sum adds (at lambda 200 up to ~800 times 1 + |value| off the
    # diagonal): at most 7.4e-15 of them (skew); panels 2.5x the rule's
    # width miss by 1.5e-12 to 3.7e-9 of them
    sp, clamped_nodes, xs, ys, new, scale = rule_case
    assert int(np.ceil(sp.tail_radius / clamped_panel(sp))) * 16 == clamped_nodes
    old = images_on_panel(sp, xs, ys, clamped_panel(sp))
    assert np.all(np.abs(new - old) <= 1e-13 * scale)


def test_band_limit_rule_is_converged(rule_case):
    # against panels a quarter as wide: at most 8.7e-15 of the moduli
    sp, _, xs, ys, new, scale = rule_case
    panel = sp.tail_radius / (sp._r_nodes.size // 16)
    finer = images_on_panel(sp, xs, ys, panel / 4.0)
    assert np.all(np.abs(new - finer) <= 1e-13 * scale)


def test_gauss_legendre_reach_is_its_formula():
    # (2^-53 / C_16)^(1/32), C_16 = 2^33 (16!)^4 / (33 (32!)^3): the float
    # lies within one ulp of the exact root
    c16 = Fraction(2**33 * math.factorial(16) ** 4, 33 * math.factorial(32) ** 3)
    target = Fraction(1, 2**53) / c16
    below, above = np.nextafter(_GL_REACH, 0.0), np.nextafter(_GL_REACH, np.inf)
    assert Fraction(below) ** 32 < target < Fraction(above) ** 32


def test_gauss_legendre_integrates_cos_at_its_reach():
    # 16 nodes integrate cos(w x) over [-1, 1] within 2^-53 of 2 sin(w)/w at
    # w = _GL_REACH (measured 7.1e-17); at 1.1 w they miss by 1.4e-15
    with mp.workdps(50):
        nodes, weights = [], []
        for x in map(mp.mpf, _GL_NODES.tolist()):
            for _ in range(6):  # Newton steps on P_16 from the float nodes
                slope = 16 * (x * mp.legendre(16, x) - mp.legendre(15, x)) / (x * x - 1)
                x -= mp.legendre(16, x) / slope
            slope = 16 * (x * mp.legendre(16, x) - mp.legendre(15, x)) / (x * x - 1)
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * slope**2))
        w = mp.mpf(_GL_REACH)
        rule = mp.fsum(c * mp.cos(w * x) for c, x in zip(weights, nodes))
        assert abs(rule - 2 * mp.sin(w) / w) <= mp.mpf(2) ** -53


def test_half_ball_box_equals_the_full_ball_fill(rule_case):
    # W[c] = W[-c]: the box filled from the half balls has the bits of the
    # canonical half of the fill from the whole balls, shell by shell
    sp = rule_case[0]
    assert sp._box.tobytes() == full_ball_box(sp).tobytes()


def test_weight_box_is_the_half_box(rule_case):
    # c_1 runs over [0, M_1] and every other c_j over [-M_j, M_j], M the
    # coefficient box of the tail ball, so the box is half the whole box
    sp = rule_case[0]
    bounds = lat.coefficient_box(sp.manifold.lattice.dual_basis, sp.tail_radius)
    bounds = bounds.astype(int).tolist()
    assert sp._box.shape == (bounds[0] + 1, *(2 * b + 1 for b in bounds[1:]))


def test_truncation_validated_by_doubling():
    x, y = np.array([0.4, 0.9]), np.array([1.0, 2.0])
    base = SmoothedProjector(TORUS, SPEC, 5.0, 0.5)
    doubled = stretched_projector(TORUS, SPEC, 5.0, 0.5, 2.0)
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
