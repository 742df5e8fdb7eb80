"""Generalized discrimination value (GDV) for labeled point clouds.

Each dimension is z-scored with the population standard deviation and halved,

    s_{n,d} = 0.5 (x_{n,d} - mu_d) / sigma_d,

then mean intra-class and inter-class Euclidean distances combine into

    GDV = 1/sqrt(D) [ mean_l intra(C_l) - (2/(L(L-1))) sum_{l<m} inter(C_l, C_m) ].

0 means fully overlapping classes; more negative means better separated. The
z-scoring makes the value invariant under global scaling/shifting, and the
Euclidean distance under permutation of components.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .projection import euclidean_distances


@dataclass
class LabeledPointSet:
    points: np.ndarray
    labels: list

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2:
            raise InputError("points must form an (n, D) array")
        if len(self.labels) != len(self.points):
            raise InputError("points and labels must have equal length")

    @property
    def classes(self):
        return list(dict.fromkeys(self.labels))  # first appearance, as in the map legend


@dataclass
class GdvReport:
    gdv: float
    mean_intra_per_class: list
    mean_inter_per_pair: list
    dimension: int
    classes: list
    class_pairs: list

    def to_dict(self):
        return {"gdv": self.gdv, "mean_intra_per_class": self.mean_intra_per_class,
                "mean_inter_per_pair": self.mean_inter_per_pair,
                "dimension": self.dimension, "classes": self.classes,
                "class_pairs": [list(p) for p in self.class_pairs]}


def zscore_half(points):
    """0.5 * (x - mu) / sigma per dimension, population sigma; constant dimensions map to 0."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) < 2:
        raise InputError("z-scoring needs at least 2 points")
    mu = points.mean(axis=0)
    sigma = points.std(axis=0)
    safe = np.where(sigma == 0.0, 1.0, sigma)
    scaled = 0.5 * (points - mu) / safe
    scaled[:, sigma == 0.0] = 0.0
    return scaled


def gdv(pointset):
    """GDV of a labeled point set; needs >= 2 classes and >= 2 points per class."""
    classes = pointset.classes
    if len(classes) < 2:
        raise InputError(f"GDV needs at least 2 classes, got {len(classes)}")
    labels = np.asarray(pointset.labels, dtype=object)
    members = {c: np.flatnonzero(labels == c) for c in classes}
    for c, idx in members.items():
        if idx.size < 2:
            raise InputError(f"class {c!r} has {idx.size} point(s); GDV needs at least 2")

    scaled = zscore_half(pointset.points)
    dist = euclidean_distances(scaled)

    intra = []
    for c in classes:
        idx = members[c]
        iu, ju = np.triu_indices(idx.size, k=1)
        intra.append(float(dist[idx[iu], idx[ju]].sum() * 2.0 / (idx.size * (idx.size - 1))))

    inter, pairs = [], []
    for a in range(len(classes) - 1):
        for b in range(a + 1, len(classes)):
            ia, ib = members[classes[a]], members[classes[b]]
            inter.append(float(dist[np.ix_(ia, ib)].sum() / (ia.size * ib.size)))
            pairs.append((classes[a], classes[b]))

    n_classes = len(classes)
    dimension = pointset.points.shape[1]
    value = (np.mean(intra) - 2.0 / (n_classes * (n_classes - 1)) * np.sum(inter)) / np.sqrt(dimension)
    return GdvReport(gdv=float(value), mean_intra_per_class=intra, mean_inter_per_pair=inter,
                     dimension=dimension, classes=classes, class_pairs=pairs)
