"""Cross-cutting checks beyond the square 2-pi torus: other lattices,
dimension 3, and finite-difference oracles for the closed-form derivatives."""

import itertools

import numpy as np
from numpy.testing import assert_allclose

from oracles import stretched_projector
from weyl_lab.lattice import Lattice, deck_images, dual_vectors
from weyl_lab.manifolds import DerivIndex, FlatTorus, eigenlevels, spectral_function
from weyl_lab.projector import cluster_vs_bessel, leading_term
from weyl_lab.smoothing import MollifierSpec, SmoothedProjector

HEX = FlatTorus(Lattice.hexagonal(1.0))
TORUS = FlatTorus(Lattice.square(2.0 * np.pi))
TORUS3 = FlatTorus(Lattice.square(2.0 * np.pi, dim=3))


def test_hexagonal_first_shell_multiplicity():
    # the hexagonal dual lattice has six shortest vectors
    shortest = dual_vectors(HEX.lattice, 20.0)[2][1]
    levels = eigenlevels(HEX, 1.1 * shortest)
    assert levels[0].multiplicity == 1
    assert levels[1].multiplicity == 6


def test_hexagonal_deck_images_brute_force():
    x, y, radius = np.zeros(2), np.array([0.21, 0.08]), 2.3
    expected = set()
    for a, b in itertools.product(range(-6, 7), repeat=2):
        w = y - x + HEX.lattice.basis @ np.array([a, b], dtype=float)
        if np.linalg.norm(w) <= radius:
            expected.add(tuple(np.round(w, 9)))
    imgs = deck_images(HEX.lattice, x, y, radius)
    assert {tuple(np.round(w, 9)) for w in imgs} == expected


def test_poisson_oracle_hexagonal_torus():
    # narrow cell (inj = 0.5) so the mollifier support is short and the
    # multiplier tail decays slowly; the full truncation radius, all pairs
    # in one call per route
    spec = MollifierSpec.for_manifold(HEX)
    sp = SmoothedProjector(HEX, spec, 12.0, 0.2)
    rng = np.random.default_rng(5)
    xs = (HEX.lattice.basis @ rng.random((2, 4))).T
    ys = (HEX.lattice.basis @ rng.random((2, 4))).T
    s, im = sp.spectral(xs, ys), sp.images(xs, ys)
    assert np.all(np.abs(s - im) <= 1e-6 * (1.0 + np.abs(s)))


def test_poisson_oracle_three_dimensional_torus():
    spec = MollifierSpec.for_manifold(TORUS3)
    sp = stretched_projector(TORUS3, spec, 3.0, 1.0, 0.35)
    rng = np.random.default_rng(7)
    for _ in range(4):
        x = TORUS3.lattice.basis @ rng.random(3)
        y = TORUS3.lattice.basis @ rng.random(3)
        s, im = sp.spectral(x, y), sp.images(x, y)
        assert abs(s - im) <= 1e-6 * (1.0 + abs(s))


def test_cluster_vs_bessel_three_dimensions():
    # half-integer Bessel prediction path; average three unit windows
    dists = np.linspace(0.0, 6.0, 13) / 10.0
    avg_c = np.zeros_like(dists)
    avg_p = np.zeros_like(dists)
    avg_d = 0.0
    for i in range(3):
        t = cluster_vs_bessel(TORUS3, 10.0 + i, 1.0, np.zeros(3), dists)
        avg_c += t.cluster / 3.0
        avg_p += t.bessel_prediction / 3.0
        avg_d += t.diagonal / 3.0
    assert np.max(np.abs(avg_c - avg_p)) <= 0.05 * avg_d


def test_derivative_kernels_match_finite_differences():
    # independent oracle: central differences of the zero-order kernels
    # (the implementation itself never uses finite differences)
    lam, h = 12.3, 1e-4
    x, y = np.array([0.4, 1.0]), np.array([0.9, 1.7])
    e1 = np.array([1.0, 0.0])
    d11 = DerivIndex(alpha=(1, 0), beta=(1, 0))

    def fd2(f):
        return (f(x + h * e1, y + h * e1) - f(x + h * e1, y - h * e1)
                - f(x - h * e1, y + h * e1) + f(x - h * e1, y - h * e1)) / (4.0 * h * h)

    exact_fn = lambda xx, yy: spectral_function(TORUS, lam, xx, yy)
    got = spectral_function(TORUS, lam, x, y, d11)
    assert_allclose(got, fd2(exact_fn), rtol=5e-6)

    lead_fn = lambda xx, yy: leading_term(TORUS, lam, xx, yy)
    got_lead = leading_term(TORUS, lam, x, y, d11)
    assert_allclose(got_lead, fd2(lead_fn), rtol=5e-6)

    d10 = DerivIndex(alpha=(1, 0))
    fd1 = (exact_fn(x + h * e1, y) - exact_fn(x - h * e1, y)) / (2.0 * h)
    assert_allclose(spectral_function(TORUS, lam, x, y, d10), fd1,
                    rtol=5e-6, atol=1e-10)
    fd1_lead = (lead_fn(x + h * e1, y) - lead_fn(x - h * e1, y)) / (2.0 * h)
    assert_allclose(leading_term(TORUS, lam, x, y, d10), fd1_lead,
                    rtol=5e-6, atol=1e-10)


def test_remainder_identity_other_lattices():
    # the scan's remainder is exact - leading also away from the square lattice
    from weyl_lab.projector import remainder_scan

    grid = np.array([8.3, 9.1, 10.7])
    for torus, point in ((HEX, np.array([0.2, 0.1])),
                         (FlatTorus(Lattice.from_basis(np.diag([2 * np.pi, 4 * np.pi]))),
                          np.array([0.5, 1.0]))):
        rep = remainder_scan(torus, grid, [(np.zeros(2), point)])
        for lam, sup in zip(grid, rep.sup_values):
            exact = spectral_function(torus, lam, np.zeros(2), point)
            assert sup == abs(exact - leading_term(torus, lam, np.zeros(2), point))
