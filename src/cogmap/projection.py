"""Classical (Torgerson) multidimensional scaling onto the plane.

Double-centers the squared distance matrix, B = -1/2 J D^2 J with
J = I - (1/n) 11^T, diagonalizes B with LAPACK's symmetric eigensolver
(`numpy.linalg.eigh`), and scales the top two eigenvectors by the square roots
of their (non-negative-clamped) eigenvalues. Deterministic: eigenvectors are
sign-fixed so each coordinate column's largest-magnitude entry is positive.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class DistanceMatrix:
    n: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (self.n, self.n):
            raise InputError(f"distance matrix must be {self.n}x{self.n}")
        if not np.array_equal(self.values, self.values.T):
            raise InputError("distance matrix must be symmetric")
        if np.any(np.diag(self.values) != 0.0):
            raise InputError("distance matrix diagonal must be zero")
        if np.any(self.values < 0.0):
            raise InputError("distances must be non-negative")


@dataclass
class Projection2D:
    coordinates: np.ndarray
    stress: float


def euclidean_distances(x):
    """Exact n x n Euclidean distance matrix of the rows of `x`, filled one row at a time.

    Each pair is computed once and written to both triangles, so symmetry is
    exact and memory stays O(n^2 + nD).
    """
    n = len(x)
    dist = np.zeros((n, n))
    for i in range(n - 1):
        diffs = x[i + 1:] - x[i]
        dist[i, i + 1:] = dist[i + 1:, i] = np.sqrt((diffs * diffs).sum(axis=1))
    return dist


def pairwise_euclidean(points):
    """Euclidean distance matrix of a set of points, as a validated DistanceMatrix."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise InputError("all points must share one dimension")
    return DistanceMatrix(n=len(points), values=euclidean_distances(points))


def classical_mds(d):
    """Project a distance matrix to 2-D coordinates plus a normalized stress.

    Stress is sqrt(sum_{i<j} (d_ij - dhat_ij)^2 / sum_{i<j} d_ij^2) where dhat
    are the distances of the projected points. Negative eigenvalues of the
    centered matrix (non-Euclidean data) are clamped to zero for coordinates.
    """
    n = d.n
    if n < 3:
        raise InputError(f"need at least 3 points to project to 2-D, got {n}")
    d2 = d.values ** 2
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    b = -0.5 * centering @ d2 @ centering
    b = 0.5 * (b + b.T)
    evals, evecs = np.linalg.eigh(b)
    order = np.argsort(-evals, kind="stable")[:2]
    coords = evecs[:, order] * np.sqrt(np.maximum(evals[order], 0.0))[None, :]
    for col in range(2):
        peak = int(np.argmax(np.abs(coords[:, col])))
        if coords[peak, col] < 0.0:
            coords[:, col] = -coords[:, col]

    upper = np.triu_indices(n, k=1)
    given = d.values[upper]
    recovered = euclidean_distances(coords)[upper]
    denom = float((given * given).sum())
    stress = float(np.sqrt(((given - recovered) ** 2).sum() / denom)) if denom > 0.0 else 0.0
    return Projection2D(coordinates=coords, stress=stress)
