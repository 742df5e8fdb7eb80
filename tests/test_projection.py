"""Pairwise distances and classical MDS."""

import math

import numpy as np
import pytest

from cogmap.errors import InputError
from cogmap.projection import DistanceMatrix, classical_mds, pairwise_euclidean


def condensed(points):
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    return np.array([np.linalg.norm(points[i] - points[j])
                     for i in range(n) for j in range(i + 1, n)])


# --------------------------------------------------------------- distances

def test_pairwise_pythagorean():
    d = pairwise_euclidean([[0.0, 0.0], [3.0, 4.0]])
    np.testing.assert_array_equal(d.values, [[0.0, 5.0], [5.0, 0.0]])


def test_pairwise_collinear():
    d = pairwise_euclidean([[0.0], [3.0], [1.0]])
    expected = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    np.testing.assert_array_equal(d.values, expected)


def test_pairwise_matches_broadcast_reference_exactly():
    # nearly coincident points included: no digits may be lost to cancellation
    rng = np.random.default_rng(5)
    points = rng.standard_normal((25, 7))
    points[1] = points[0] + 1e-9
    diffs = points[:, None, :] - points[None, :, :]
    expected = np.sqrt((diffs * diffs).sum(axis=-1))
    np.testing.assert_array_equal(pairwise_euclidean(points).values, expected)


def test_distance_matrix_validation():
    with pytest.raises(InputError, match="symmetric"):
        DistanceMatrix(n=2, values=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InputError, match="diagonal"):
        DistanceMatrix(n=2, values=np.array([[1.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(InputError, match="non-negative"):
        DistanceMatrix(n=2, values=np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(InputError, match="2x2"):
        DistanceMatrix(n=2, values=np.zeros((3, 3)))


# --------------------------------------------------------------------- MDS

def test_recovers_planar_configurations():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((10, 2)) * rng.uniform(0.5, 4.0)
        d = pairwise_euclidean(points)
        proj = classical_mds(d)
        assert proj.coordinates.shape == (10, 2)
        assert proj.stress < 1e-9
        np.testing.assert_allclose(condensed(proj.coordinates), condensed(points),
                                   atol=1e-8)


def test_unit_square_distance_multiset():
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    proj = classical_mds(pairwise_euclidean(square))
    assert proj.stress < 1e-9
    np.testing.assert_allclose(np.sort(condensed(proj.coordinates)),
                               [1.0, 1.0, 1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0)],
                               atol=1e-8)


def test_tetrahedron_cannot_be_flattened():
    # four mutually equidistant points need 3 dimensions; stress must be real
    d = DistanceMatrix(n=4, values=np.ones((4, 4)) - np.eye(4))
    proj = classical_mds(d)
    assert proj.coordinates.shape == (4, 2)
    assert 0.05 < proj.stress < 0.8


def test_scale_equivariance():
    rng = np.random.default_rng(9)
    points = rng.standard_normal((7, 2))
    d = pairwise_euclidean(points)
    doubled = DistanceMatrix(n=7, values=2.0 * d.values)
    a = classical_mds(d).coordinates
    b = classical_mds(doubled).coordinates
    np.testing.assert_allclose(b, 2.0 * a, atol=1e-9)


def test_first_component_carries_most_variance():
    rng = np.random.default_rng(4)
    points = rng.standard_normal((12, 2)) * np.array([5.0, 1.0])
    proj = classical_mds(pairwise_euclidean(points))
    variances = proj.coordinates.var(axis=0)
    assert variances[0] > variances[1]


def test_deterministic_with_positive_peak_sign():
    rng = np.random.default_rng(14)
    points = rng.standard_normal((9, 3))
    d = pairwise_euclidean(points)
    a = classical_mds(d)
    b = classical_mds(d)
    np.testing.assert_array_equal(a.coordinates, b.coordinates)
    assert a.stress == b.stress
    for col in range(2):
        peak = np.argmax(np.abs(a.coordinates[:, col]))
        assert a.coordinates[peak, col] > 0.0


def test_too_few_points_rejected():
    d = pairwise_euclidean([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(InputError, match="at least 3"):
        classical_mds(d)
