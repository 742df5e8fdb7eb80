"""Pairwise distances and classical MDS."""

import math

import numpy as np
import pytest

from cogmap.errors import InputError
from cogmap.projection import classical_mds, pairwise_euclidean


def condensed(points):
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    return np.array([np.linalg.norm(points[i] - points[j])
                     for i in range(n) for j in range(i + 1, n)])


def double_centering_mds(points):
    """Oracle: the textbook route, B = -1/2 J D^2 J from the distance matrix."""
    d = pairwise_euclidean(points)
    n = len(d)
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * centering @ (d ** 2) @ centering
    evals, evecs = np.linalg.eigh(0.5 * (b + b.T))
    order = np.argsort(-evals, kind="stable")[:2]
    return evecs[:, order] * np.sqrt(np.maximum(evals[order], 0.0))[None, :]


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

def test_recovers_planar_configurations():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((10, 2)) * rng.uniform(0.5, 4.0)
        proj = classical_mds(points)
        assert proj.coordinates.shape == (10, 2)
        assert proj.stress < 1e-9
        np.testing.assert_allclose(condensed(proj.coordinates), condensed(points),
                                   atol=1e-8)


def test_unit_square_distance_multiset():
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    proj = classical_mds(square)
    assert proj.stress < 1e-9
    np.testing.assert_allclose(np.sort(condensed(proj.coordinates)),
                               [1.0, 1.0, 1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0)],
                               atol=1e-8)


def test_tetrahedron_cannot_be_flattened():
    # four mutually equidistant points need 3 dimensions; stress must be real
    points = np.eye(4) / np.sqrt(2.0)
    np.testing.assert_allclose(condensed(points), 1.0, rtol=1e-15)
    proj = classical_mds(points)
    assert proj.coordinates.shape == (4, 2)
    assert 0.05 < proj.stress < 0.8


def test_scale_equivariance():
    rng = np.random.default_rng(9)
    points = rng.standard_normal((7, 2))
    a = classical_mds(points).coordinates
    b = classical_mds(2.0 * points).coordinates
    np.testing.assert_allclose(b, 2.0 * a, atol=1e-9)


def test_first_component_carries_most_variance():
    rng = np.random.default_rng(4)
    points = rng.standard_normal((12, 2)) * np.array([5.0, 1.0])
    proj = classical_mds(points)
    variances = proj.coordinates.var(axis=0)
    assert variances[0] > variances[1]


def test_deterministic_with_positive_peak_sign():
    rng = np.random.default_rng(14)
    points = rng.standard_normal((9, 3))
    a = classical_mds(points)
    b = classical_mds(points)
    np.testing.assert_array_equal(a.coordinates, b.coordinates)
    assert a.stress == b.stress
    for col in range(2):
        peak = np.argmax(np.abs(a.coordinates[:, col]))
        assert a.coordinates[peak, col] > 0.0


def test_too_few_points_rejected():
    with pytest.raises(InputError, match="at least 3"):
        classical_mds([[0.0, 0.0], [1.0, 0.0]])


def test_ragged_points_rejected():
    with pytest.raises(InputError, match="one dimension"):
        classical_mds(np.zeros(5))


@pytest.mark.parametrize("seed", range(10))
def test_matches_double_centering_oracle(seed):
    # B from the centred points must give the map of -1/2 J D^2 J: the same
    # pairwise distances between projected points, and the same stress
    rng = np.random.default_rng(300 + seed)
    n, dim = int(rng.integers(3, 40)), int(rng.integers(2, 12))
    points = rng.standard_normal((n, dim)) * rng.uniform(0.01, 100.0) + rng.uniform(-50, 50, dim)
    proj = classical_mds(points)
    oracle = condensed(double_centering_mds(points))
    np.testing.assert_allclose(condensed(proj.coordinates), oracle,
                               rtol=0, atol=1e-12 * oracle.max())
    given = condensed(points)
    oracle_stress = np.sqrt(((given - oracle) ** 2).sum() / (given ** 2).sum())
    assert abs(proj.stress - oracle_stress) <= 1e-12
