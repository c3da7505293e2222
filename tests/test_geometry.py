import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocperc.geometry import (
    Domain,
    GeometryError,
    distance,
    kd_tree,
    nearest,
    pairwise_distances,
    replica_rng,
    sample_poisson,
    unit_ball_volume,
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
    mat = pairwise_distances(pts, oth, dom)
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
    mat = pairwise_distances(pts, oth, dom)
    assert np.array_equal(distance(pts[:, None, :], oth[idx], dom),
                          np.take_along_axis(mat, idx, axis=1))


def test_sample_poisson_reproducible_and_in_domain():
    dom = Domain(sides=(4.0, 6.0), periodic=False)
    a = sample_poisson(dom, 2.0, replica_rng(17, 3))
    b = sample_poisson(dom, 2.0, replica_rng(17, 3))
    np.testing.assert_array_equal(a, b)
    assert np.all(dom.contains(a))


def test_sample_poisson_counts_mean():
    # lambda * volume = 100; over k replicas the mean must sit within 4 sigma/sqrt(k)
    dom = Domain(sides=(10.0, 10.0), periodic=True)
    k = 400
    counts = [len(sample_poisson(dom, 1.0, replica_rng(23, i))) for i in range(k)]
    assert abs(np.mean(counts) - 100.0) < 4.0 * 10.0 / math.sqrt(k)


def test_sample_poisson_degenerate_domain():
    dom = Domain(sides=(1e-9, 1e-9), periodic=True)
    assert len(sample_poisson(dom, 1.0, replica_rng(1))) == 0


def test_palm_adds_origin_point():
    per = Domain(sides=(8.0, 8.0), periodic=True)
    pts = sample_poisson(per, 0.5, replica_rng(9), palm=True)
    assert np.all(pts[0] == 0.0)
    opn = Domain(sides=(8.0, 8.0), periodic=False)
    pts = sample_poisson(opn, 0.5, replica_rng(9), palm=True)
    assert np.all(pts[0] == 4.0)


def test_streams_are_order_insensitive():
    dom = Domain(sides=(5.0, 5.0), periodic=True)
    first = [sample_poisson(dom, 1.0, replica_rng(3, i)) for i in (0, 1, 2)]
    second = [sample_poisson(dom, 1.0, replica_rng(3, i)) for i in (2, 1, 0)]
    for got, want in zip(first, reversed(second)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["random", "lattice", "duplicated"])
def test_nearest_rows_are_exact_below_their_bound(kind, d, periodic):
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
    dense = pairwise_distances(pts, centers, dom)
    order = np.argsort(dense, axis=1, kind="stable")  # (distance, index) order
    sd = np.take_along_axis(dense, order, axis=1)
    tree = kd_tree(centers, dom)
    n = len(centers)
    for k in (1, 2, 5, n, n + 3):
        nbr, dist, bound = nearest(tree, pts, k, centers, dom)
        assert nbr.shape == dist.shape == (len(pts), min(k, n))
        assert np.all(np.isinf(bound)) == (k >= n) and np.all(np.isfinite(bound)) == (k < n)
        for i in range(len(pts)):
            m = np.count_nonzero(dist[i] < bound[i])
            assert np.array_equal(nbr[i, :m], order[i, :m])
            assert np.array_equal(dist[i, :m], sd[i, :m])
            # every center nearer than the bound is in the row
            assert np.count_nonzero(dense[i] < bound[i]) == m
