"""Classical (Torgerson) multidimensional scaling of a `LabeledPoints` record onto the plane.

For Euclidean distances the double-centered matrix B = -1/2 J D^2 J, with
J = I - (1/n) 11^T, is the Gram matrix Xc Xc^T of the centered points
(Torgerson 1952; Gower 1966), so B is built from the points themselves.
LAPACK's symmetric eigensolver (`numpy.linalg.eigh`) diagonalizes it, and the
top two eigenvectors are scaled by the square roots of their
(non-negative-clamped) eigenvalues. Deterministic: eigenvectors are sign-fixed
so each coordinate column's largest-magnitude entry is positive.
"""

import numpy as np

from .errors import InputError
from .fileio import LabeledPoints


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
    """Euclidean distance matrix of a set of points given as the rows of an (n, D) array."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise InputError("all points must share one dimension")
    return euclidean_distances(points)


def classical_mds(points):
    """Project a `LabeledPoints` record to the plane; returns (coordinates, normalized stress),
    the coordinates a record of the same lexicon with one (x, y) row per word.

    Stress is sqrt(sum_{i<j} (d_ij - dhat_ij)^2 / sum_{i<j} d_ij^2) where d
    are the distances of the points and dhat those of the projected points.
    """
    dist = pairwise_euclidean(points.points)
    n = len(dist)
    if n < 3:
        raise InputError(f"need at least 3 points to project to 2-D, got {n}")
    centered = points.points - points.points.mean(axis=0)
    evals, evecs = np.linalg.eigh(centered @ centered.T)
    order = np.argsort(-evals, kind="stable")[:2]
    coords = evecs[:, order] * np.sqrt(np.maximum(evals[order], 0.0))[None, :]
    peaks = coords[np.argmax(np.abs(coords), axis=0), [0, 1]]
    coords *= np.where(peaks < 0.0, -1.0, 1.0)

    # both triangles count every pair twice, which cancels in the ratio
    recovered = euclidean_distances(coords)
    denom = float((dist * dist).sum())
    stress = float(np.sqrt(((dist - recovered) ** 2).sum() / denom)) if denom > 0.0 else 0.0
    return LabeledPoints(points.lex, coords), stress
