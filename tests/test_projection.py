"""Pairwise distances and classical MDS; exact planar recovery is acceptance criterion 7."""

import math

import numpy as np
import pytest

from cogmap.projection import pairwise_euclidean

from oracles import condensed, double_centering_mds, mds


# --------------------------------------------------------------- distances

def test_pairwise_pythagorean():
    d = pairwise_euclidean([[0.0, 0.0], [3.0, 4.0]])
    np.testing.assert_array_equal(d, [[0.0, 5.0], [5.0, 0.0]])


def test_pairwise_collinear():
    d = pairwise_euclidean([[0.0], [3.0], [1.0]])
    expected = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    np.testing.assert_array_equal(d, expected)


def test_pairwise_matches_broadcast_reference_exactly():
    # nearly coincident points included: no digits may be lost to cancellation
    rng = np.random.default_rng(5)
    points = rng.standard_normal((25, 7))
    points[1] = points[0] + 1e-9
    diffs = points[:, None, :] - points[None, :, :]
    expected = np.sqrt((diffs * diffs).sum(axis=-1))
    np.testing.assert_array_equal(pairwise_euclidean(points), expected)


# --------------------------------------------------------------------- MDS

def test_unit_square_distance_multiset():
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    coords, stress = mds(square)
    assert stress < 1e-9
    np.testing.assert_allclose(np.sort(condensed(coords)),
                               [1.0, 1.0, 1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0)],
                               atol=1e-8)


def test_tetrahedron_cannot_be_flattened():
    # four mutually equidistant points need 3 dimensions; stress must be real
    points = np.eye(4) / np.sqrt(2.0)
    np.testing.assert_allclose(condensed(points), 1.0, rtol=1e-15)
    coords, stress = mds(points)
    assert coords.shape == (4, 2)
    assert 0.05 < stress < 0.8


def test_scale_equivariance():
    rng = np.random.default_rng(9)
    points = rng.standard_normal((7, 2))
    a, _ = mds(points)
    b, _ = mds(2.0 * points)
    np.testing.assert_allclose(b, 2.0 * a, atol=1e-9)


def test_first_component_carries_most_variance():
    rng = np.random.default_rng(4)
    points = rng.standard_normal((12, 2)) * np.array([5.0, 1.0])
    coords, stress = mds(points)
    variances = coords.var(axis=0)
    assert variances[0] > variances[1]


def test_deterministic_with_positive_peak_sign():
    rng = np.random.default_rng(14)
    points = rng.standard_normal((9, 3))
    a, a_stress = mds(points)
    b, b_stress = mds(points)
    np.testing.assert_array_equal(a, b)
    assert a_stress == b_stress
    for col in range(2):
        peak = np.argmax(np.abs(a[:, col]))
        assert a[peak, col] > 0.0


@pytest.mark.parametrize("seed", range(10))
def test_matches_double_centering_oracle(seed):
    # B from the centred points must give the map of -1/2 J D^2 J: the same
    # pairwise distances between projected points, and the same stress
    rng = np.random.default_rng(300 + seed)
    n, dim = int(rng.integers(3, 40)), int(rng.integers(2, 12))
    points = rng.standard_normal((n, dim)) * rng.uniform(0.01, 100.0) + rng.uniform(-50, 50, dim)
    coords, stress = mds(points)
    oracle = condensed(double_centering_mds(points))
    np.testing.assert_allclose(condensed(coords), oracle,
                               rtol=0, atol=1e-12 * oracle.max())
    given = condensed(points)
    oracle_stress = np.sqrt(((given - oracle) ** 2).sum() / (given ** 2).sum())
    assert abs(stress - oracle_stress) <= 1e-12
