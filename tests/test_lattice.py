import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import box_lattice_vectors
from weyl_lab.errors import CutLocusError, DomainError, ResourceLimitError
from weyl_lab.lattice import (
    Lattice,
    deck_images,
    dual_vectors,
    injectivity_radius,
    slab_ends,
    slab_form,
    slab_prefixes,
    slab_row_norms,
    torus_log,
)

SQUARE2PI = Lattice.square(2.0 * np.pi)  # dual lattice = integer grid


def brute_count(radius, reach=None):
    # independent double-loop oracle over the integer dual grid
    reach = reach if reach is not None else int(radius) + 1
    hits = 0
    for a, b in itertools.product(range(-reach, reach + 1), repeat=2):
        if a * a + b * b <= radius * radius:
            hits += 1
    return hits


def test_enumerate_dual_unit_radius():
    coeffs, _, norms = dual_vectors(SQUARE2PI, 1.0)
    assert len(norms) == 5
    assert tuple(coeffs[0]) == (0, 0) and norms[0] == 0.0
    assert {tuple(c) for c in coeffs.tolist()} == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_enumerate_dual_radius_ten_against_brute_force():
    coeffs, _, norms = dual_vectors(SQUARE2PI, 10.0)
    assert len(norms) == brute_count(10.0) == 317
    # complete and duplicate-free
    assert len({tuple(c) for c in coeffs.tolist()}) == 317
    # ordered by (norm, lexicographic coeffs)
    keys = list(zip(norms.tolist(), map(tuple, coeffs.tolist())))
    assert keys == sorted(keys)


def test_enumerate_dual_small_radius():
    assert len(dual_vectors(SQUARE2PI, 0.5)[2]) == 1


def test_enumeration_cap(monkeypatch):
    import weyl_lab.lattice as lat

    monkeypatch.setattr(lat, "ENUM_CAP", 100)
    with pytest.raises(ResourceLimitError):
        dual_vectors(SQUARE2PI, 50.0)
    # the cap counts the rows returned (317 in the ball, 64 in the shell),
    # not a bounding box of candidates
    monkeypatch.setattr(lat, "ENUM_CAP", 317)
    assert dual_vectors(SQUARE2PI, 10.0)[2].size == 317
    monkeypatch.setattr(lat, "ENUM_CAP", 316)
    with pytest.raises(ResourceLimitError, match="317 lattice points, exceeding the cap 316"):
        dual_vectors(SQUARE2PI, 10.0)
    monkeypatch.setattr(lat, "ENUM_CAP", 64)
    assert dual_vectors(SQUARE2PI, 10.0, inner=9.0)[2].size == 64
    monkeypatch.undo()
    # far over the cap, a lower bound on the rows refuses before any slab
    # is built (3-D radius 4000 would need 6.4e7 slabs for the count)
    with pytest.raises(ResourceLimitError, match=r"at least 2\.675e\+11 lattice points"):
        dual_vectors(Lattice.square(2.0 * np.pi, dim=3), 4000.0)
    # inner and outer volumes both overflow: the bound is inf - inf = nan
    with pytest.raises(ResourceLimitError, match="at least nan lattice points"):
        dual_vectors(SQUARE2PI, 1e300, inner=1e300)


ENUMERATION_LATTICES = {
    "square2pi": SQUARE2PI,
    "unit": Lattice.square(1.0),
    "hex": Lattice.hexagonal(1.0),
    "skew": Lattice.from_basis([[1.0, 0.3], [0.0, 1.2]]),
    "diag": Lattice.from_basis(np.diag([2.0, 5.0])),
    "3d": Lattice.square(2.0 * np.pi, dim=3),
    "3d-skew": Lattice.from_basis([[1.0, 0.2, 0.1], [0.0, 1.1, 0.3], [0.0, 0.0, 0.9]]),
}


@pytest.mark.parametrize("name", list(ENUMERATION_LATTICES))
def test_dual_vectors_equal_the_box_enumerator(name):
    lattice = ENUMERATION_LATTICES[name]
    for radius in (0.5, 3.3, 10.0, 24.0 if lattice.dim == 2 else 14.0):
        expected = box_lattice_vectors(lattice.dual_basis, radius)
        got = dual_vectors(lattice, radius)
        norms = expected[2]
        # radii on the largest root and one ulp to either side, and shells
        # whose inner radius sits on a root or beside it
        top, inner = float(norms[-1]), float(norms[norms.size // 2])
        cases = [(radius, -1.0, expected, got)]
        for hi in (top, np.nextafter(top, 0.0), np.nextafter(top, np.inf)):
            if hi > 0.0:
                cases.append((hi, -1.0, box_lattice_vectors(lattice.dual_basis, hi),
                              dual_vectors(lattice, hi)))
        for lo in (inner, np.nextafter(inner, 0.0), np.nextafter(inner, np.inf)):
            keep = norms > lo
            cases.append((radius, lo, tuple(a[keep] for a in expected),
                          dual_vectors(lattice, radius, inner=lo)))
        for hi, lo, want, have in cases:
            for a, b in zip(want, have):
                assert a.dtype == b.dtype and a.shape == b.shape, (hi, lo)
                assert a.tobytes() == b.tobytes(), (hi, lo)


@pytest.mark.parametrize("name", list(ENUMERATION_LATTICES))
def test_slab_ends_gap_is_the_nearest_edge_row_norm(name):
    # the on-spectrum guard reads the gap off slab_ends: it must be the
    # nearest of the norms slab_row_norms gives rows a - 1, a, b, b + 1,
    # slab by slab (a whole symmetric box would hide a wrong hi side), for
    # thresholds on a root, one ulp either side of it, and generic ones
    # (empty slabs included)
    G = ENUMERATION_LATTICES[name].dual_basis
    radius = 12.0 if G.shape[0] == 2 else 7.0
    prefixes = slab_prefixes(G, radius)
    roots = box_lattice_vectors(G, radius)[2]
    thresholds = [0.0, 0.3, 2.71, radius]
    for root in roots[[1, roots.size // 3, -1]]:
        thresholds += [root, np.nextafter(root, 0.0), np.nextafter(root, np.inf)]
    for threshold in thresholds:
        a, b, gap = slab_ends(G, prefixes, threshold)
        rows = np.stack([a - 1, a, b, b + 1])
        norms = np.concatenate([slab_row_norms(G, prefixes, t) for t in rows])
        assert gap == np.min(np.abs(norms - threshold)), threshold
        assert np.all(norms[[1, 2]][:, a <= b] <= threshold)
        assert np.all(norms[[0, 3]] > threshold)
        for s in range(prefixes.shape[0]):
            single = slab_ends(G, prefixes[s:s + 1], threshold)
            assert (single[0][0], single[1][0]) == (a[s], b[s])
            assert single[2] == np.min(np.abs(norms[:, s] - threshold)), (threshold, s)
    assert slab_ends(G, prefixes, roots[-1])[2] == 0.0


@pytest.mark.parametrize("name", list(ENUMERATION_LATTICES))
def test_slab_ends_from_one_form_equal_fresh_calls(name):
    # a lambda grid computes the prefix-only terms of the quadratic form
    # once; every threshold's ends and gap must be those of a call that
    # computes them itself
    G = ENUMERATION_LATTICES[name].dual_basis
    radius = 12.0 if G.shape[0] == 2 else 7.0
    prefixes = slab_prefixes(G, radius)
    form = slab_form(G, prefixes)
    roots = box_lattice_vectors(G, radius)[2]
    thresholds = list(np.linspace(0.0, radius, 9)) + [
        t for root in roots[[1, roots.size // 2, -1]]
        for t in (root, np.nextafter(root, 0.0), np.nextafter(root, np.inf))]
    for threshold in thresholds:
        shared = slab_ends(G, prefixes, threshold, form)
        fresh = slab_ends(G, prefixes, threshold)
        assert shared[0].tobytes() == fresh[0].tobytes(), threshold
        assert shared[1].tobytes() == fresh[1].tobytes(), threshold
        assert shared[2] == fresh[2], threshold


def shell_count(lattice, lo, hi):
    # dual points with lo < norm <= hi, read off the enumeration
    norms = dual_vectors(lattice, hi)[2]
    return int(np.count_nonzero(norms > lo))


def test_shell_count_values():
    assert shell_count(SQUARE2PI, 0.5, 1.0) == 4
    assert shell_count(SQUARE2PI, 0.0, 10.0) == 316
    assert shell_count(SQUARE2PI, 1.0, 1.2) == 0


def test_gauss_count_consistency():
    for lam in [3.7, 9.0, 14.2]:
        assert shell_count(SQUARE2PI, 0.0, lam) + 1 == brute_count(lam)


def test_weyl_count_within_five_percent():
    lam = 200.0
    n = len(dual_vectors(SQUARE2PI, lam)[2])
    continuum = np.pi * lam**2 * SQUARE2PI.covolume / (2.0 * np.pi) ** 2
    assert abs(n / continuum - 1.0) < 0.05


def test_injectivity_radius():
    assert_allclose(injectivity_radius(SQUARE2PI), np.pi, rtol=1e-12)
    rect = Lattice.from_basis(np.diag([2.0 * np.pi, 4.0 * np.pi]))
    assert_allclose(injectivity_radius(rect), np.pi, rtol=1e-12)
    hexa = Lattice.hexagonal(1.0)
    assert_allclose(injectivity_radius(hexa), 0.5, rtol=1e-12)


def test_torus_log_basics():
    x = np.array([0.3, 1.0])
    assert_allclose(torus_log(SQUARE2PI, x, x), np.zeros(2), atol=1e-15)
    w = torus_log(SQUARE2PI, np.zeros(2), np.array([6.0, 0.0]))
    assert_allclose(w, np.array([6.0 - 2.0 * np.pi, 0.0]), atol=1e-12)


def test_torus_log_antisymmetry():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = SQUARE2PI.basis @ rng.random(2)
        y = SQUARE2PI.basis @ rng.random(2)
        try:
            w = torus_log(SQUARE2PI, x, y)
        except CutLocusError:
            continue
        assert_allclose(w, -torus_log(SQUARE2PI, y, x), atol=1e-12)


def test_torus_log_cut_locus():
    with pytest.raises(CutLocusError) as err:
        torus_log(SQUARE2PI, np.zeros(2), np.array([np.pi, 0.0]))
    assert len(err.value.ties) >= 2


def test_deck_images_zero_offset():
    imgs = deck_images(SQUARE2PI, np.zeros(2), np.zeros(2), 0.9 * 2.0 * np.pi)
    assert imgs.shape == (1, 2)
    assert_allclose(imgs[0], np.zeros(2), atol=1e-15)
    imgs = deck_images(SQUARE2PI, np.zeros(2), np.zeros(2), 2.0 * np.pi)
    assert imgs.shape == (5, 2)


def test_deck_images_against_brute_force():
    x, y, radius = np.zeros(2), np.array([1.0, 0.0]), 7.0
    expected = []
    for a, b in itertools.product(range(-3, 4), repeat=2):
        w = y - x + SQUARE2PI.basis @ np.array([a, b], dtype=float)
        if np.linalg.norm(w) <= radius:
            expected.append(tuple(np.round(w, 9)))
    imgs = deck_images(SQUARE2PI, x, y, radius)
    assert {tuple(np.round(w, 9)) for w in imgs} == set(expected)
    norms = np.linalg.norm(imgs, axis=1)
    assert np.all(np.diff(norms) >= -1e-12)


def test_deck_images_norms_swap_symmetry():
    x, y = np.array([0.2, 0.4]), np.array([1.5, 2.0])
    a = np.sort(np.linalg.norm(deck_images(SQUARE2PI, x, y, 9.0), axis=1))
    b = np.sort(np.linalg.norm(deck_images(SQUARE2PI, y, x, 9.0), axis=1))
    assert_allclose(a, b, atol=1e-12)


def test_lattice_validation():
    with pytest.raises(DomainError):
        Lattice.from_basis(np.zeros((2, 2)))
    with pytest.raises(DomainError):
        Lattice.from_basis(np.eye(4))
    lat = Lattice.square(1.0)
    assert_allclose(lat.dual_basis, 2.0 * np.pi * np.eye(2), rtol=1e-15)
    assert_allclose(lat.covolume, 1.0)


def test_dual_vectors_sorted_deterministically():
    c1, v1, n1 = dual_vectors(SQUARE2PI, 12.3)
    c2, v2, n2 = dual_vectors(SQUARE2PI, 12.3)
    assert np.array_equal(c1, c2) and np.array_equal(v1, v2)
    assert np.all(np.diff(n1) >= -1e-15)


@pytest.mark.parametrize("name", ["square2pi", "hex", "3d-skew"])
def test_deck_images_point_arrays_equal_single_pairs(name):
    # one period-lattice enumeration serves every pair: each pair's images
    # (set, order and bits) are those of a call with that pair alone,
    # including x = y and a pair that differs by a period vector
    lattice = ENUMERATION_LATTICES[name]
    rng = np.random.default_rng(17)
    xs = (lattice.basis @ rng.random((lattice.dim, 5))).T
    ys = (lattice.basis @ rng.random((lattice.dim, 5))).T
    ys[1] = xs[1]
    ys[2] = xs[2] + lattice.basis @ np.arange(1, lattice.dim + 1)
    radius = 3.0 * float(np.min(np.linalg.norm(lattice.basis, axis=0)))
    many = deck_images(lattice, xs, ys, radius)
    assert isinstance(many, list) and len(many) == 5
    for got, x, y in zip(many, xs, ys):
        want = deck_images(lattice, x, y, radius)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # a single point pairs with every row of the other
    for got, y in zip(deck_images(lattice, xs[0], ys, radius), ys):
        assert got.tobytes() == deck_images(lattice, xs[0], y, radius).tobytes()
    assert deck_images(lattice, xs[:0], ys[:0], radius) == []
