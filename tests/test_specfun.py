import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import eval_legendre, j0, j1, jv

from weyl_lab.errors import DomainError
from weyl_lab.specfun import (
    RADIAL_SERIES_SWITCH,
    bessel_j,
    bessel_ratio,
    legendre_p,
    legendre_step,
    sphere_fourier,
    universal_covariance,
)


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(1.5, 0.0) == 0.0


def test_bessel_half_integer_closed_form():
    # sqrt(2/(pi x)) sin x at x = pi/2; cross-checked by a 30-digit series oracle
    assert_allclose(bessel_j(0.5, math.pi / 2), 0.63661977236758134308, rtol=1e-14)
    assert_allclose(bessel_j(0.5, math.pi / 2), 2.0 / math.pi, rtol=1e-14)


def test_bessel_j0_root():
    # root located by bisection on the power series (oracle: 2.4048255576957727686)
    assert abs(bessel_j(0, 2.404825557695773)) < 1e-12


@pytest.mark.parametrize(
    "nu,x,expected",
    [
        # frozen from the quadrature oracle (1/pi) * int_0^pi cos(nu t - x sin t) dt
        (0, 7.3, 0.28821694763501439904),
        (1, 19.0, -0.1057014311424092668),
        (3, 42.0, 0.05671287027523567564),
        (5, 100.0, -0.074195736964513920834),
    ],
)
def test_bessel_integer_quadrature_oracle(nu, x, expected):
    assert_allclose(bessel_j(nu, x), expected, rtol=0, atol=1e-12)


SWEEP_XS = np.concatenate(
    [np.linspace(1e-3, 11.9, 23), np.linspace(12.0, 30.0, 19), np.geomspace(30.0, 1e4, 25)]
)


def test_bessel_ten_digit_sweep():
    # >= 10 significant digits relative to the oscillation envelope on [0, 1e4]
    orders = [-1, -0.5, 0, 0.5, 1, 1.5, 2, 3.5, 5, 10]
    xs = SWEEP_XS
    for nu in orders:
        got = bessel_j(nu, xs)
        for x, g in zip(xs, got):
            with mp.workdps(30):
                want = float(mp.besselj(mp.mpf(nu), mp.mpf(x)))
            env = max(abs(want), math.sqrt(2.0 / (math.pi * x)))
            assert abs(g - want) <= 1e-10 * env, (nu, x)


@pytest.mark.parametrize("nu", [0, 1])
def test_bessel_orders_zero_and_one_absolute_accuracy(nu):
    # orders 0 and 1 take the j0/j1 fast path: within 5e-15 absolute of
    # 30-digit mpmath and of the general-order jv on [0, 1e4]
    xs = np.concatenate([[0.0], SWEEP_XS])
    got = bessel_j(nu, xs)
    assert np.max(np.abs(got - jv(nu, xs))) <= 5e-15
    with mp.workdps(30):
        for x, g in zip(xs, got):
            assert abs(g - float(mp.besselj(nu, mp.mpf(x)))) <= 5e-15, x
    assert np.array_equal([bessel_j(nu, float(x)) for x in xs], got)


@pytest.mark.parametrize("nu,cephes", [(0, j0), (1, j1)], ids=["j0", "j1"])
def test_bessel_orders_zero_and_one_are_cephes_bit_for_bit(nu, cephes):
    # the numpy port keeps Cephes' coefficients and order of operations;
    # scipy's j0/j1 are that Cephes code, so the values are equal, across
    # the x = 5 branch switch and on chunk boundaries too
    rng = np.random.default_rng(13)
    xs = np.concatenate([[0.0, 1e-6, np.nextafter(5.0, 0.0), 5.0, np.nextafter(5.0, 6.0)],
                         SWEEP_XS, rng.uniform(0.0, 1e4, 100_000)])
    assert np.array_equal(bessel_j(nu, xs), cephes(xs))
    block = xs[:100_000].reshape(5, -1)
    assert np.array_equal(bessel_j(nu, block), cephes(block))
    assert bessel_j(nu, 7.25) == cephes(7.25)
    assert np.array_equal(bessel_j(-1, xs), -j1(xs))


# every order bessel_j steps by recurrence or sums as a series
GENERAL_ORDERS = [-0.5, 0.5, 1.5, 2, 2.5, 3, 3.5, 5, 7.5, 9.5, 10]


@pytest.mark.parametrize("nu", GENERAL_ORDERS)
def test_bessel_general_orders_against_mpmath(nu):
    # series below x = nu, upward recurrence from (J_0, J_1) or
    # (J_{-1/2}, J_{1/2}) above it, probed on both sides of the switch.
    # Measured: <= 3.9e-15 absolute (integer orders inherit j0/j1's error
    # at x ~ 1e4) and <= 3.1e-16 for half-integer orders; relative to the
    # envelope max(|J|, sqrt(2/(pi x))) <= 3.7e-13
    switch = np.arange(0.5, 10.5, 0.5)
    xs = np.concatenate([SWEEP_XS, switch, switch * (1.0 + 1e-12), switch * (1.0 - 1e-12)])
    got = bessel_j(nu, xs)
    with mp.workdps(30):
        for x, g in zip(xs, got):
            want = float(mp.besselj(mp.mpf(nu), mp.mpf(x)))
            env = max(abs(want), math.sqrt(2.0 / (math.pi * x)))
            assert abs(g - want) <= 5e-15, (nu, x)
            assert abs(g - want) <= 1e-12 * env, (nu, x)
    assert np.array_equal([bessel_j(nu, float(x)) for x in xs], got)


def test_bessel_ratio_series_branch_is_pinned():
    # below the switch the ratio is the 4-term Taylor series, whatever
    # routine serves the order; at the switch it is J_nu(r) / r^nu
    for nu in (0, 1):
        for r in (0.0, 1e-9, 5e-7, np.nextafter(RADIAL_SERIES_SWITCH, 0.0)):
            q = r * r / 4.0
            acc = 0.0
            for k in range(3, -1, -1):
                acc = acc * q + (-1.0) ** k * math.exp(
                    -math.lgamma(k + 1.0) - math.lgamma(nu + k + 1.0))
            assert bessel_ratio(nu, r) == acc / 2.0 ** nu, (nu, r)
        r = RADIAL_SERIES_SWITCH
        assert bessel_ratio(nu, r) == bessel_j(nu, r) / r ** nu


def test_bessel_ratio_order_minus_one_below_the_switch():
    # r J_{-1}(r) = -r J_1(r); the series' leading coefficient 1/Gamma(0)
    # is 0, not exp(-lgamma(0))
    assert bessel_ratio(-1, 0.0) == 0.0
    rs = np.array([0.0, 1e-7, 5e-7])
    got = bessel_ratio(-1, rs)
    assert got[0] == 0.0
    assert_allclose(got[1:], -rs[1:] * j1(rs[1:]), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("nu", [0, 0.5, 1, 2.5, 10])
def test_bessel_ratio_arrays_mixing_both_branches(nu):
    # an array holding radii on both sides of the switch (and 1e-300, where
    # the Cephes far branch overflows before the near branch replaces it)
    # gives each entry its scalar value and raises none of the floating-point
    # warnings numpy gives by default (underflow is silent there)
    rs = np.array([0.0, 1e-300, 5e-7, RADIAL_SERIES_SWITCH, 0.3, 7.0, 40.0, 0.0, 1e-8])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        got = bessel_ratio(nu, rs)
    assert np.array_equal(got, [bessel_ratio(nu, float(r)) for r in rs])
    big = rs >= RADIAL_SERIES_SWITCH
    assert np.array_equal(got[big], bessel_j(nu, rs[big]) / rs[big] ** nu)


def test_bessel_recurrence_invariant():
    # J_{nu-1}(x) + J_{nu+1}(x) = (2 nu / x) J_nu(x), relative 1e-9 on [0.1, 100]
    xs = np.geomspace(0.1, 100.0, 60)
    for tw in range(0, 13):  # nu = 0 .. 6 in half steps (nu-1 >= -1 required)
        nu = tw / 2.0
        lhs = bessel_j(nu - 1.0, xs) + bessel_j(nu + 1.0, xs)
        rhs = (2.0 * nu / xs) * bessel_j(nu, xs)
        scale = np.maximum(np.abs(rhs), np.sqrt(2.0 / (np.pi * xs)))
        assert np.all(np.abs(lhs - rhs) <= 1e-9 * scale), nu


def test_bessel_order_validation():
    with pytest.raises(DomainError, match="< -1"):
        bessel_j(-1.5, 1.0)
    with pytest.raises(DomainError, match="half-integer"):
        bessel_j(0.3, 1.0)
    with pytest.raises(DomainError, match="envelope"):
        bessel_j(25, 1.0)
    with pytest.raises(DomainError, match="envelope"):
        bessel_ratio(10.5, 1.0)
    # a float order within 1e-12 of a half-integer is that order
    assert bessel_j(2.5 + 1e-13, 3.0) == bessel_j(2.5, 3.0)
    with pytest.raises(DomainError):
        bessel_j(0, -1.0)


def test_legendre_trivial():
    assert legendre_p(0, 0.3) == 1.0
    assert legendre_p(1, 0.25) == 0.25
    assert legendre_p(7, 1.0) == 1.0


def test_legendre_degree5_explicit():
    # oracle: P_5(x) = (63 x^5 - 70 x^3 + 15 x)/8
    x = 0.7
    assert_allclose(legendre_p(5, x), (63 * x**5 - 70 * x**3 + 15 * x) / 8, rtol=1e-14)


def test_legendre_bounded_on_interval():
    xs = np.linspace(-1.0, 1.0, 2001)
    for l in [2, 3, 5, 10, 25, 60]:
        assert np.max(np.abs(legendre_p(l, xs))) <= 1.0 + 1e-12


@pytest.mark.parametrize("l", [50, 200, 800])
def test_legendre_mpmath_at_scan_degrees(l):
    # sphere scans reach degree ~800; mpmath at 30 digits is the oracle
    xs = [-0.999, -0.3, 0.1, 0.77, 0.99999]
    got = legendre_p(l, np.array(xs))
    for x, g in zip(xs, got):
        with mp.workdps(30):
            want = float(mp.legendre(l, mp.mpf(x)))
        assert abs(g - want) <= 1e-12, (l, x)


@pytest.mark.parametrize("l", [0, 1, 2, 5, 50, 204, 400, 800])
def test_legendre_matches_eval_legendre(l):
    # the difference-form recurrence is scipy's: equal bit for bit where
    # |x| >= 1e-5.  Below, scipy switches to a power series and the
    # recurrence stays; the drift there is measured <= 6.8e-15 absolute at
    # degree 800 (<= 1.7e-16 up to degree 204)
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.uniform(-1.0, 1.0, 2000), [-1.0, 1.0, 1e-5, -1e-5],
                         1.0 - np.geomspace(1e-15, 1e-2, 40)])
    assert np.array_equal(legendre_p(l, xs), eval_legendre(l, xs))
    small = np.concatenate([[0.0, 1e-12, -3e-9], rng.uniform(-1e-5, 1e-5, 200)])
    assert np.max(np.abs(legendre_p(l, small) - eval_legendre(l, small))) <= 1e-14
    assert legendre_p(l, 1.0) == 1.0


def test_legendre_steps_continue_legendre_p():
    # an ascent by legendre_step from P_1 reproduces legendre_p at every degree
    xs = np.linspace(-1.0, 1.0, 101)
    p, d = legendre_p(1, xs), xs - 1.0
    for l in range(2, 60):
        p, d = legendre_step(l - 1, xs, p, d)
        assert np.array_equal(p, legendre_p(l, xs)), l


def test_legendre_domain():
    with pytest.raises(DomainError):
        legendre_p(3, 1.5)
    with pytest.raises(DomainError):
        legendre_p(-1, 0.0)


def ball_fourier(n, r):
    # unit-ball Fourier transform (2 pi)^{n/2} J_{n/2}(r) / r^{n/2}, the
    # profile of the Weyl leading term
    return (2.0 * np.pi) ** (n / 2.0) * bessel_ratio(n / 2.0, r)


def test_ball_fourier_values():
    assert_allclose(ball_fourier(2, 0.0), math.pi, rtol=1e-15)
    assert_allclose(ball_fourier(3, 0.0), 4 * math.pi / 3, rtol=1e-15)
    # frozen 2-D quadrature of cos(<w,xi>) over the unit disk at |w| = 5
    assert_allclose(ball_fourier(2, 5.0), -0.41164808485065088699, rtol=0, atol=1e-8)


def test_sphere_fourier_values():
    assert_allclose(sphere_fourier(2, 0.0), 2 * math.pi, rtol=1e-15)
    assert abs(sphere_fourier(3, math.pi)) < 1e-12  # 4 pi sin(r)/r at r = pi
    # frozen quadrature of int_0^{2pi} cos(3 cos t) dt
    assert_allclose(sphere_fourier(2, 3.0), -1.6339546221431566156, rtol=0, atol=1e-10)


def test_universal_covariance_values():
    assert_allclose(universal_covariance(2, 0.0), 1.0 / (2 * math.pi), rtol=1e-15)
    assert abs(universal_covariance(2, 2.404825557695773)) < 1e-12
    assert abs(universal_covariance(3, math.pi)) < 1e-12


def test_universal_covariance_bounded_by_origin():
    for n in (2, 3):
        rs = np.linspace(0.0, 60.0, 1200)
        vals = universal_covariance(n, rs)
        assert np.all(np.abs(vals) <= universal_covariance(n, 0.0) + 1e-15)


def test_ball_is_shell_integral_of_spheres():
    # int_0^1 S_n(r rho) rho^{n-1} d rho = B_n(r), Gauss-Legendre to 1e-8
    nodes, weights = np.polynomial.legendre.leggauss(200)
    rho = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    for n in (2, 3):
        for r in [0.0, 0.5, 2.0, 5.0, 17.3]:
            shell = np.sum(w * sphere_fourier(n, r * rho) * rho ** (n - 1))
            assert_allclose(shell, ball_fourier(n, r), rtol=0, atol=1e-8)


def test_radial_kernels_continuous_across_series_switch():
    # branch switch at r = 1e-6 must be seamless
    for fn in (lambda r: ball_fourier(2, r), lambda r: sphere_fourier(3, r),
               lambda r: universal_covariance(2, r)):
        below, above = fn(1e-6 * (1 - 1e-9)), fn(1e-6 * (1 + 1e-9))
        assert abs(below - above) < 1e-12


def test_radial_kernel_dimension_domain():
    for fn in (sphere_fourier, universal_covariance):
        with pytest.raises(DomainError):
            fn(1, 0.5)


def test_bessel_ratio_matches_limit():
    assert_allclose(bessel_ratio(2, 0.0), 1.0 / (4 * math.gamma(3)), rtol=1e-15)
    assert_allclose(bessel_ratio(1, 3.0), bessel_j(1, 3.0) / 3.0, rtol=1e-14)
