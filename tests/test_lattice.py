import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (box_lattice_vectors, box_torus_log, canonical_half, full_slab_ends,
                     per_pair_torus_log)
from weyl_lab.cli import parse_manifold
from weyl_lab.errors import CutLocusError, DomainError, ResourceLimitError
from weyl_lab.lattice import (
    ON_SPECTRUM_TOL,
    Lattice,
    _column_sum_norms,
    _lattice_vectors,
    deck_images,
    dual_vectors,
    injectivity_radius,
    slab_ends,
    slab_form,
    slab_prefixes,
    slab_row_norms,
    torus_distance,
    torus_log,
)
from weyl_lab.manifolds import FlatTorus, spectral_window

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
    # the canonical half in walk order: slab by slab, ascending within a slab
    coeffs, _, norms = dual_vectors(SQUARE2PI, 1.0)
    assert coeffs.tolist() == [[0, 0], [0, 1], [1, 0]]
    assert norms.tolist() == [0.0, 1.0, 1.0]


def test_enumerate_dual_radius_ten_against_brute_force():
    coeffs, _, norms = dual_vectors(SQUARE2PI, 10.0)
    assert 2 * len(norms) - 1 == brute_count(10.0) == 317
    # complete and duplicate-free, in lexicographic coefficient order, and
    # the canonical half: every other ball point is the negative of one
    keys = list(map(tuple, coeffs.tolist()))
    assert len(set(keys)) == 159 and keys == sorted(keys)
    assert {(-a, -b) for a, b in keys} & set(keys) == {(0, 0)}
    # the spectral window orders the same rows by (norm, lexicographic
    # coeffs), which on the integer grid are the vectors, each row a pair
    # k, -k but the origin
    win = spectral_window(FlatTorus(SQUARE2PI), -1.0, 10.0)
    keys = list(zip(win.roots.tolist(), map(tuple, win.vectors.tolist())))
    assert len(keys) == 159 and keys == sorted(keys)
    assert win.mults.tolist() == [1] + [2] * 158


def test_enumerate_dual_small_radius():
    assert len(dual_vectors(SQUARE2PI, 0.5)[2]) == 1


def test_enumeration_cap(monkeypatch):
    import weyl_lab.lattice as lat

    monkeypatch.setattr(lat, "ENUM_CAP", 100)
    with pytest.raises(ResourceLimitError):
        dual_vectors(SQUARE2PI, 50.0)
    # the cap counts the rows returned (159 in the half ball, 32 in the
    # half shell), not a bounding box of candidates
    monkeypatch.setattr(lat, "ENUM_CAP", 159)
    assert dual_vectors(SQUARE2PI, 10.0)[2].size == 159
    monkeypatch.setattr(lat, "ENUM_CAP", 158)
    with pytest.raises(ResourceLimitError, match="159 lattice points, exceeding the cap 158"):
        dual_vectors(SQUARE2PI, 10.0)
    monkeypatch.setattr(lat, "ENUM_CAP", 32)
    assert dual_vectors(SQUARE2PI, 10.0, inner=9.0)[2].size == 32
    # torus_log's candidates count too: 3 pairs, each against the 5 periods
    # of the ball of radius 2 |(3, 3)| (plus the tie allowance) they share
    monkeypatch.setattr(lat, "ENUM_CAP", 15)
    assert torus_log(SQUARE2PI, np.zeros((3, 2)), np.full((3, 2), 3.0)).shape == (3, 2)
    monkeypatch.setattr(lat, "ENUM_CAP", 14)
    with pytest.raises(ResourceLimitError, match="have 15 candidates, exceeding the cap 14"):
        torus_log(SQUARE2PI, np.zeros((3, 2)), np.full((3, 2), 3.0))
    monkeypatch.undo()
    # far over the cap, a lower bound on the rows refuses before any slab
    # is built (3-D radius 4000 would need 6.4e7 slabs for the count): half
    # of the 2.675e11 points the cells of the whole ball bound
    with pytest.raises(ResourceLimitError, match=r"at least 1\.337e\+11 lattice points"):
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


def _lexicographic(rows):
    """(coeffs, vectors, norms) reordered by lexicographic coefficients."""
    order = np.lexsort(rows[0].T[::-1])
    return tuple(a[order] for a in rows)


@pytest.mark.parametrize("name", list(ENUMERATION_LATTICES))
def test_dual_vectors_equal_the_box_enumerator(name):
    # the whole-ball walk holds the box enumerator's rows in lexicographic
    # coefficient order, dual_vectors their canonical half, and the
    # spectral window that half in the box's (norm, lexicographic) order
    # with multiplicity 2 a row but the origin's 1, all bit for bit
    lattice = ENUMERATION_LATTICES[name]
    torus = FlatTorus(lattice)
    G = lattice.dual_basis
    for radius in (0.5, 3.3, 10.0, 24.0 if lattice.dim == 2 else 14.0):
        expected = box_lattice_vectors(G, radius)
        norms = expected[2]
        # radii on the largest root and one ulp to either side, and shells
        # whose inner radius sits on a root or beside it
        top, inner = float(norms[-1]), float(norms[norms.size // 2])
        cases = [(radius, -1.0, expected)]
        for hi in (top, np.nextafter(top, 0.0), np.nextafter(top, np.inf)):
            if hi > 0.0:
                cases.append((hi, -1.0, box_lattice_vectors(G, hi)))
        for lo in (inner, np.nextafter(inner, 0.0), np.nextafter(inner, np.inf)):
            keep = norms > lo
            cases.append((radius, lo, tuple(a[keep] for a in expected)))
        for hi, lo, want in cases:
            half = canonical_half(want[0])
            for rows, have in ((want, _lattice_vectors(G, hi, lo)),
                               (tuple(a[half] for a in want), dual_vectors(lattice, hi, lo))):
                for a, b in zip(_lexicographic(rows), have):
                    assert a.dtype == b.dtype and a.shape == b.shape, (hi, lo)
                    assert a.tobytes() == b.tobytes(), (hi, lo)
            # the box takes a 1e-15 relative slack past hi, the window none
            win = spectral_window(torus, lo, hi)
            inside = half & (want[2] <= hi)
            assert want[1][inside].tobytes() == win.vectors.tobytes(), (hi, lo)
            assert want[2][inside].tobytes() == win.roots.tobytes(), (hi, lo)
            assert win.mults.tolist() == [2 if c.any() else 1 for c in want[0][inside]]


HALF_LATTICES = {"square2pi": SQUARE2PI, "hex": Lattice.hexagonal(1.0),
                 "mat:1,0.9;0,0.2": parse_manifold("torus:2:mat:1,0.9;0,0.2").lattice,
                 "3d": ENUMERATION_LATTICES["3d"]}


@pytest.mark.parametrize("name", list(HALF_LATTICES))
def test_half_ball_is_the_canonical_half_of_the_full_call(name):
    # the canonical half of the box enumerator's ball, bit for bit
    lattice = HALF_LATTICES[name]
    G = lattice.dual_basis
    # the zero slab holds the multiples of the last dual generator: inner
    # balls past its length cut that slab, on a norm and one ulp off it
    edge = float(np.linalg.norm(G[:, -1]))
    radius = max(40.0, 6.0 * edge) if lattice.dim == 2 else 14.0
    norms = np.sort(box_lattice_vectors(G, radius)[2])
    mid = float(norms[norms.size // 2])
    assert mid > 2.0 * edge
    cases = [(r, -1.0) for r in (0.5, edge, 3.3, radius)]
    cases += [(radius, lo) for lo in (0.0, edge, np.nextafter(edge, 0.0), 2.5 * edge, mid,
                                      np.nextafter(mid, np.inf))]
    for hi, lo in cases:
        ball = box_lattice_vectors(G, hi)
        full = _lexicographic(tuple(a[ball[2] > lo] for a in ball))
        half = dual_vectors(lattice, hi, inner=lo)
        keep = canonical_half(full[0])
        for want, have in zip(full, half):
            assert want.dtype == have.dtype, (hi, lo)
            assert want[keep].tobytes() == have.tobytes(), (hi, lo)
        origin = np.count_nonzero(~half[0].any(axis=1))
        assert origin == (1 if lo < 0.0 else 0), (hi, lo)
        assert 2 * half[2].size - origin == full[2].size, (hi, lo)


def test_half_ball_cap_counts_half_the_rows(monkeypatch):
    import weyl_lab.lattice as lat

    # radius 10 on the integer dual grid: 317 rows, 159 in the half; the
    # volume bound on the whole ball is pi 8^2 = 201.1 rows, past a cap that
    # the half stays within
    monkeypatch.setattr(lat, "ENUM_CAP", 159)
    assert dual_vectors(SQUARE2PI, 10.0)[2].size == 159
    with pytest.raises(ResourceLimitError, match=r"at least 201\.1 lattice points"):
        _lattice_vectors(SQUARE2PI.dual_basis, 10.0)
    monkeypatch.setattr(lat, "ENUM_CAP", 158)
    with pytest.raises(ResourceLimitError, match="holds 159 lattice points, exceeding the cap 158"):
        dual_vectors(SQUARE2PI, 10.0)


@pytest.mark.parametrize("name", list(ENUMERATION_LATTICES))
def test_slab_ends_gap_is_the_nearest_edge_row_norm(name):
    # the on-spectrum guard reads the gap off slab_ends.  Settled on every
    # slab (the oracle), the gap is the nearest of the norms slab_row_norms
    # gives rows a - 1, a, b, b + 1, slab by slab (a whole symmetric box
    # would hide a wrong hi side).  slab_ends settles only the slabs that
    # come within ON_SPECTRUM_TOL of the threshold: its ends must be the
    # oracle's, and its gap never below the exact one and equal to it below
    # ON_SPECTRUM_TOL, for thresholds on a root, an ulp either side of it,
    # inside the guard and generic ones (empty slabs included)
    G = ENUMERATION_LATTICES[name].dual_basis
    radius = 12.0 if G.shape[0] == 2 else 7.0
    prefixes = slab_prefixes(G, radius)
    roots = box_lattice_vectors(G, radius)[2]
    thresholds = [0.0, 0.3, 2.71, radius]
    for root in roots[[1, roots.size // 3, -1]]:
        thresholds += [root, np.nextafter(root, 0.0), np.nextafter(root, np.inf),
                       root - 5e-10, root + 5e-10]
    for threshold in thresholds:
        a, b, gap = slab_ends(G, prefixes, threshold)
        full_a, full_b, exact = full_slab_ends(G, prefixes, threshold)
        assert a.tobytes() == full_a.tobytes() and b.tobytes() == full_b.tobytes(), threshold
        rows = np.stack([a - 1, a, b, b + 1])
        norms = np.concatenate([slab_row_norms(G, prefixes, t) for t in rows])
        assert exact == np.min(np.abs(norms - threshold)), threshold
        assert gap >= exact and (gap == exact or exact >= ON_SPECTRUM_TOL), threshold
        assert np.all(norms[[1, 2]][:, a <= b] <= threshold)
        assert np.all(norms[[0, 3]] > threshold)
        for s in range(prefixes.shape[0]):
            single = slab_ends(G, prefixes[s:s + 1], threshold)
            assert (single[0][0], single[1][0]) == (a[s], b[s])
            nearest = np.min(np.abs(norms[:, s] - threshold))
            assert single[2] >= nearest, (threshold, s)
            assert single[2] == nearest or nearest >= ON_SPECTRUM_TOL, (threshold, s)
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
    # dual points with lo < norm <= hi, the multiplicities of the window
    return int(spectral_window(FlatTorus(lattice), lo, hi).mults.sum())


def test_shell_count_values():
    assert shell_count(SQUARE2PI, 0.5, 1.0) == 4
    assert shell_count(SQUARE2PI, 0.0, 10.0) == 316
    assert shell_count(SQUARE2PI, 1.0, 1.2) == 0


def test_gauss_count_consistency():
    for lam in [3.7, 9.0, 14.2]:
        assert shell_count(SQUARE2PI, 0.0, lam) + 1 == brute_count(lam)


def test_weyl_count_within_five_percent():
    lam = 200.0
    n = shell_count(SQUARE2PI, -1.0, lam)
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
    # the edge midpoint of the square cell ties 2 representatives, its
    # corner 4 and the corner of the cube 8; every one of them is listed,
    # and ties of exactly equal norm in the lexicographic order of their
    # periods' coefficients, here that of the vectors: (-pi, 0) before
    # (pi, 0), and (-pi, -pi) first at the corner
    square3 = Lattice.square(2.0 * np.pi, dim=3)
    for lattice, offset in ((SQUARE2PI, [np.pi, 0.0]), (SQUARE2PI, [np.pi, np.pi]),
                            (square3, [np.pi] * 3)):
        with pytest.raises(CutLocusError) as err:
            torus_log(lattice, np.zeros(lattice.dim), np.array(offset))
        expected = sorted({tuple(s * np.pi if o else 0.0 for s, o in zip(signs, offset))
                           for signs in itertools.product((-1.0, 1.0), repeat=lattice.dim)})
        ties = err.value.ties
        assert [tuple(np.round(w, 12) + 0.0) for w in ties] == [
            tuple(np.round(w, 12) + 0.0) for w in expected]
    # an array call names the first pair on the cut locus
    xs = np.array([[0.0, 0.0], [0.3, 0.1], [1.0, 1.0]])
    ys = xs + np.array([[1.0, 0.0], [np.pi, np.pi], [0.0, np.pi]])
    with pytest.raises(CutLocusError, match=r"at pair 1, x = \[0.3 0.1\]") as err:
        torus_log(SQUARE2PI, xs, ys)
    assert len(err.value.ties) == 4


LOG_LATTICES = {"square": SQUARE2PI, "hex": Lattice.hexagonal(1.0),
                "skew": parse_manifold("torus:2:mat:1,0.9;0,0.2").lattice,
                "3d": Lattice.square(2.0 * np.pi, dim=3)}


@pytest.mark.parametrize("name", sorted(LOG_LATTICES))
def test_torus_log_arrays_match_per_pair_calls(name):
    # one array call equals per-pair calls, and the per-pair candidate
    # search it replaced, bit for bit; so does the distance
    lattice = LOG_LATTICES[name]
    rng = np.random.default_rng(11)
    xs = rng.uniform(-3.0, 9.0, (60, lattice.dim))
    ys = rng.uniform(-3.0, 9.0, (60, lattice.dim))
    got = torus_log(lattice, xs, ys)
    assert got.shape == xs.shape
    for rows in ([torus_log(lattice, x, y) for x, y in zip(xs, ys)],
                 [per_pair_torus_log(lattice, x, y) for x, y in zip(xs, ys)]):
        assert got.tobytes() == np.array(rows).tobytes()
    assert torus_distance(lattice, xs, ys).tobytes() == np.array(
        [np.linalg.norm(w) for w in got]).tobytes()
    # a single point pairs with every row of the other
    assert torus_log(lattice, xs[0], ys).tobytes() == np.array(
        [torus_log(lattice, xs[0], y) for y in ys]).tobytes()


NEAR_DEGENERATE = parse_manifold("torus:2:mat:1,0.99;0,0.01").lattice


def test_torus_log_on_a_near_degenerate_basis_equals_the_box_search():
    # the coefficient box this basis needs has reach ~281 per pair; the
    # period-ball walk returns the same representatives, up to the rounding
    # of the periods' products (the walk's gemm against the box's matvecs)
    rng = np.random.default_rng(23)
    xs = rng.uniform(-3.0, 9.0, (24, 2))
    ys = rng.uniform(-3.0, 9.0, (24, 2))
    got = torus_log(NEAR_DEGENERATE, xs, ys)
    want = np.array([box_torus_log(NEAR_DEGENERATE, x, y) for x, y in zip(xs, ys)])
    assert np.max(np.abs(got - want)) <= 2e-15


def test_torus_log_memory_on_a_near_degenerate_basis():
    # the box search peaked at ~2.5 GiB of tracemalloc for these 300 pairs
    rng = np.random.default_rng(29)
    xs = rng.uniform(-3.0, 9.0, (300, 2))
    ys = rng.uniform(-3.0, 9.0, (300, 2))
    tracemalloc.start()
    try:
        torus_log(NEAR_DEGENERATE, xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


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
    # walk order is a function of the call alone: strictly increasing
    # lexicographic coefficients, the same bits on a repeated call, whole
    # ball and shell alike
    for inner in (-1.0, 7.5):
        first = dual_vectors(SQUARE2PI, 12.3, inner=inner)
        again = dual_vectors(SQUARE2PI, 12.3, inner=inner)
        for a, b in zip(first, again):
            assert a.tobytes() == b.tobytes()
        steps = np.diff(first[0], axis=0)
        first_change = steps[np.arange(steps.shape[0]), np.argmax(steps != 0, axis=1)]
        assert np.all(first_change > 0)


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


def test_column_sum_norms_equal_linalg_norm_bit_for_bit():
    # the enumeration and slab_row_norms take their norms this way; it must
    # be np.linalg.norm(axis=1), which the box oracle and the scans use,
    # on random rows of many scales, on non-contiguous arrays and where a
    # square overflows
    rng = np.random.default_rng(31)
    for d in (2, 3):
        rows = rng.standard_normal((200_000, d)) * np.exp(rng.uniform(-30.0, 30.0, (200_000, 1)))
        rows[:5] = 0.0
        rows[5:10, 0] = -rows[5:10, 1]
        wide = rng.standard_normal((1000, 2 * d + 1))
        for v in (rows, np.asfortranarray(rows), rows[::3], wide[:, 1::2], wide[::-2, :d]):
            got = _column_sum_norms(v)
            assert got.tobytes() == np.linalg.norm(v, axis=1).tobytes(), (d, v.strides)
        huge = np.array([[1e200, 1.0, 1e-300][:d], [1e154, 1e154, 0.0][:d], [-1e308] * d])
        with np.errstate(over="ignore"):
            assert _column_sum_norms(huge).tobytes() == np.linalg.norm(huge, axis=1).tobytes()
        with pytest.raises(FloatingPointError), np.errstate(over="raise"):
            _column_sum_norms(huge)


@pytest.mark.parametrize("dim, rows, bound", [(2, 47_441, 56), (3, 267_731, 80)])
def test_lattice_vectors_peak_bytes_per_row(dim, rows, bound):
    # the enumeration's tracemalloc peak over its row count, returned rows
    # included (56 bytes a 3-D row, 40 a 2-D one): the build with
    # column_stack, np.linalg.norm and fancy-index gathers peaked at 137
    # and 104 bytes a row on these two balls, with a stable norm sort and
    # np.take gathers at 89.4 and 64.4, and in walk order at 73.4 and 48.4
    if dim == 2:  # the smoothed-projector benchmark item's tail ball
        G, radius = SQUARE2PI.dual_basis, 122.93639892984935
    else:
        G, radius = np.eye(3), (267_731 / (4.0 / 3.0 * np.pi)) ** (1.0 / 3.0)
    tracemalloc.start()
    try:
        coeffs, _, _ = _lattice_vectors(G, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coeffs.shape[0] == rows
    assert peak <= bound * rows
