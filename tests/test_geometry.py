import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocperc import geometry
from allocperc.geometry import (
    Domain,
    GeometryError,
    distance,
    kd_tree,
    nearest,
    nearest_until,
    palm_origin,
    replica_rng,
    sample_poisson,
    unit_ball_volume,
    within,
)


def test_unit_ball_volume_low_dims():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_unit_ball_volume_rejects_zero():
    with pytest.raises(GeometryError):
        unit_ball_volume(0)


def test_distance_identity_and_pythagorean():
    dom = Domain(sides=(10.0, 10.0), periodic=False)
    a = np.array([1.0, 2.0])
    assert distance(a, a, dom) == 0.0
    assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0]), dom) == pytest.approx(5.0)


def test_distance_wraparound():
    dom = Domain(sides=(10.0,), periodic=True)
    assert distance(np.array([1.0]), np.array([9.0]), dom) == pytest.approx(2.0)


def test_distance_dimension_mismatch():
    dom = Domain(sides=(10.0, 10.0), periodic=False)
    with pytest.raises(GeometryError):
        distance(np.array([1.0]), np.array([1.0, 2.0, 3.0]), dom)


def test_domain_validation():
    with pytest.raises(GeometryError):
        Domain(sides=(1.0, -2.0))
    with pytest.raises(GeometryError):
        Domain(sides=())
    # not finite, or a volume that underflows to 0
    for sides in [(math.nan,), (math.inf,), (1e-200, 1e-200)]:
        with pytest.raises(GeometryError):
            Domain(sides=sides, periodic=False)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 9.999999), min_size=6, max_size=6),
    st.booleans(),
)
def test_distance_symmetry_and_triangle(coords, periodic):
    dom = Domain(sides=(10.0, 10.0), periodic=periodic)
    a, b, c = (np.array(coords[i : i + 2]) for i in (0, 2, 4))
    ab = distance(a, b, dom)
    ba = distance(b, a, dom)
    assert ab == pytest.approx(ba, abs=1e-12)
    assert ab <= distance(a, c, dom) + distance(c, b, dom) + 1e-9


def test_pairwise_matches_scalar():
    dom = Domain(sides=(7.0, 5.0), periodic=True)
    rng = replica_rng(5)
    pts = rng.random((9, 2)) * np.array([7.0, 5.0])
    oth = rng.random((4, 2)) * np.array([7.0, 5.0])
    mat = distance(pts[:, None], oth[None], dom)
    for i in range(9):
        for j in range(4):
            assert mat[i, j] == pytest.approx(float(distance(pts[i], oth[j], dom)), abs=1e-12)


@pytest.mark.parametrize("periodic", [True, False])
def test_paired_distances_equal_matrix_entries(periodic):
    # gathered neighbour distances must equal the dense matrix bit for bit
    dom = Domain(sides=(7.0, 5.0, 3.0), periodic=periodic)
    rng = replica_rng(6)
    pts = rng.random((30, 3)) * np.array(dom.sides)
    oth = rng.random((20, 3)) * np.array(dom.sides)
    idx = rng.integers(0, 20, size=(30, 8))
    mat = distance(pts[:, None], oth[None], dom)
    assert np.array_equal(distance(pts[:, None, :], oth[idx], dom),
                          np.take_along_axis(mat, idx, axis=1))


def test_sample_poisson_reproducible_and_in_domain():
    dom = Domain(sides=(4.0, 6.0), periodic=False)
    a = sample_poisson(dom, 2.0, replica_rng(17, 3))
    b = sample_poisson(dom, 2.0, replica_rng(17, 3))
    np.testing.assert_array_equal(a, b)
    assert np.all((a >= 0.0) & (a < np.asarray(dom.sides)))


def test_sample_poisson_counts_mean():
    # lambda * volume = 100; over k replicas the mean must sit within 4 sigma/sqrt(k)
    dom = Domain(sides=(10.0, 10.0), periodic=True)
    k = 400
    counts = [len(sample_poisson(dom, 1.0, replica_rng(23, i))) for i in range(k)]
    assert abs(np.mean(counts) - 100.0) < 4.0 * 10.0 / math.sqrt(k)


def test_sample_poisson_degenerate_domain():
    dom = Domain(sides=(1e-9, 1e-9), periodic=True)
    assert len(sample_poisson(dom, 1.0, replica_rng(1))) == 0


def test_palm_origin_is_the_corner_or_the_box_center():
    assert np.all(palm_origin(Domain(sides=(8.0, 8.0), periodic=True)) == 0.0)
    assert np.all(palm_origin(Domain(sides=(8.0, 6.0), periodic=False)) == [4.0, 3.0])


def test_streams_are_order_insensitive():
    dom = Domain(sides=(5.0, 5.0), periodic=True)
    first = [sample_poisson(dom, 1.0, replica_rng(3, i)) for i in (0, 1, 2)]
    second = [sample_poisson(dom, 1.0, replica_rng(3, i)) for i in (2, 1, 0)]
    for got, want in zip(first, reversed(second)):
        np.testing.assert_array_equal(got, want)


def nearest_case(kind, d, periodic):
    """Query points, tree points and domain for nearest."""
    rng = replica_rng(d, 2 * ("random", "lattice", "duplicated").index(kind) + periodic)
    sides = np.full(d, 5.0)
    centers = rng.random((40, d)) * sides
    if kind == "lattice":  # equidistant neighbours everywhere
        centers = np.floor(centers)
    elif kind == "duplicated":
        centers = np.vstack([centers, centers[:15], centers[:3]])
    centers[0] = sides  # a coordinate equal to the side length
    dom = Domain(sides=tuple(sides), periodic=periodic)
    pts = np.vstack([centers, rng.random((30, d)) * sides,
                     np.floor(rng.random((30, d)) * sides) + 0.5])
    return pts, centers, dom


def assert_dense_rows(tree, pts, centers, dom):
    """nearest(tree, ...) matches the dense (distance, index) rows below its
    bound at every k; returns the answers."""
    dense = distance(pts[:, None], centers[None], dom)
    order = np.argsort(dense, axis=1, kind="stable")  # (distance, index) order
    sd = np.take_along_axis(dense, order, axis=1)
    n = len(centers)
    answers = []
    for k in (1, 2, 5, n, n + 3):
        nbr, dist, bound = nearest(tree, pts, k, centers, dom)
        assert nbr.shape == dist.shape == (len(pts), min(k, n))
        assert np.all(np.isinf(bound)) == (k >= n) and np.all(np.isfinite(bound)) == (k < n)
        for i in range(len(pts)):
            m = np.count_nonzero(dist[i] < bound[i])
            assert np.array_equal(nbr[i, :m], order[i, :m])
            assert np.array_equal(dist[i, :m], sd[i, :m])
            assert np.all(np.isinf(dist[i, m:]))
            # every center nearer than the bound is in the row
            assert np.count_nonzero(dense[i] < bound[i]) == m
        answers.append((nbr, dist, bound))
    return answers


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["random", "lattice", "duplicated"])
def test_nearest_rows_are_exact_below_their_bound(kind, d, periodic):
    pts, centers, dom = nearest_case(kind, d, periodic)
    assert_dense_rows(kd_tree(centers, dom), pts, centers, dom)


class ShuffledTree:
    """A kd-tree whose query lists each row's neighbours in a random order."""

    def __init__(self, tree, rng):
        self.tree, self.rng = tree, rng

    def query(self, pts, k):
        _, nbr = self.tree.query(pts, k=k)
        order = self.rng.permuted(np.tile(np.arange(k), (len(pts), 1)), axis=1)
        return None, np.take_along_axis(nbr.reshape(len(pts), k), order, axis=1)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["random", "lattice", "duplicated"])
def test_nearest_re_sorts_rows_the_tree_lists_out_of_order(kind, d, periodic):
    pts, centers, dom = nearest_case(kind, d, periodic)
    tree = kd_tree(centers, dom)
    want = assert_dense_rows(tree, pts, centers, dom)
    got = assert_dense_rows(ShuffledTree(tree, replica_rng(7, d)), pts, centers, dom)
    for answer, expected in zip(got, want):
        for a, b in zip(answer, expected):
            assert np.array_equal(a, b)


def within_case(case, d, periodic):
    """Query points, tree points, radii and domain for within."""
    rng = replica_rng(31, 4 * d + 2 * periodic + ("duplicated", "at L", "zero", "slack",
                                                  "empty").index(case))
    sides = np.full(d, 4.0)
    dom = Domain(sides=tuple(sides), periodic=periodic)
    others = np.floor(rng.random((50, d)) * sides * 2) / 2  # ties on a half lattice
    others = np.vstack([others, others[:10], others[:4]])  # some points twice or thrice
    pts = np.vstack([others[::3], rng.random((20, d)) * sides])
    r = rng.uniform(0.0, 1.5, len(pts))
    if case == "at L":  # coordinates equal to the side length, on both sides
        others[:5] = sides
        pts[:3] = sides
        pts[3, 0] = sides[0]
    elif case == "zero":  # only coincident points are within 0
        r[::2] = 0.0
    elif case == "slack":  # radii one rounding step and 1e-10 around a distance
        dense = distance(pts[:, None], others[None], dom)
        j = rng.integers(0, len(others), len(pts))
        exact = dense[np.arange(len(pts)), j]
        r = np.choose(np.arange(len(pts)) % 4,
                      [exact, np.nextafter(exact, -np.inf), exact * (1 - 1e-10),
                       exact * (1 + 1e-10)])
    elif case == "empty":
        pts, r = pts[:0], r[:0]
    return pts, others, r, dom


@pytest.mark.parametrize("block", [geometry.BLOCK, 5, 1])
@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("case", ["duplicated", "at L", "zero", "slack", "empty"])
def test_within_yields_the_dense_pairs_in_blocks(monkeypatch, case, d, periodic, block):
    monkeypatch.setattr(geometry, "BLOCK", block)
    pts, others, r, dom = within_case(case, d, periodic)
    dense = distance(pts[:, None], others[None], dom).reshape(len(pts), len(others))
    want = {(i, j): dense[i, j] for i, j in zip(*np.nonzero(dense <= r[:, None]))}
    got, rows = {}, set()
    for i, j, dist in within(kd_tree(others, dom), pts, r, others, dom):
        # a block holds at most BLOCK pairs, or one point's
        assert len(i) <= block or np.all(i == i[0])
        assert not rows & set(i.tolist())  # a point's pairs come in one block
        rows |= set(i.tolist())
        for key, value in zip(zip(i.tolist(), j.tolist()), dist.tolist()):
            assert key not in got
            got[key] = value
    assert got == want
    assert case == "empty" or len(want) > len(pts)
    if case == "zero":
        assert any(dense[i, j] == 0.0 and r[i] == 0.0 for i, j in want)


@pytest.mark.parametrize("block", [geometry.BLOCK, 16, 1])
@pytest.mark.parametrize("k0", [1, 2, 8])
def test_nearest_until_settles_each_row_once(monkeypatch, block, k0):
    monkeypatch.setattr(geometry, "BLOCK", block)
    dom = Domain(sides=(6.0, 6.0), periodic=False)
    rng = replica_rng(41)
    others = rng.random((70, 2)) * 6.0
    pts = rng.random((90, 2)) * 6.0
    want = rng.integers(1, 80, len(pts))  # each row settles once it holds this many
    real_nearest = geometry.nearest
    sizes, settled = [], []

    def spy(tree, q, k, oth, domain):
        sizes.append(len(q) * min(k, len(oth)))
        return real_nearest(tree, q, k, oth, domain)

    def settle(rows, nbr, dist, bound, k):
        assert len(rows) == len(nbr) == len(dist) == len(bound)
        assert np.array_equal(nbr, real_nearest(kd_tree(others, dom), pts[rows], k, others,
                                                 dom)[0])
        done = (np.count_nonzero(dist < np.inf, axis=1) >= want[rows]) | (bound == np.inf)
        settled.extend(rows[done].tolist())
        return done

    monkeypatch.setattr(geometry, "nearest", spy)
    nearest_until(kd_tree(others, dom), pts, others, dom, settle, k=k0)
    assert sorted(settled) == list(range(len(pts)))
    # no call covers more than max(BLOCK, one row) entries
    assert max(sizes) <= max(block, len(others))
    assert len(sizes) > 1
