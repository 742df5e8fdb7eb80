"""Generalized discrimination value (GDV) for labeled point clouds.

Each dimension is z-scored with the population standard deviation and halved,

    s_{n,d} = 0.5 (x_{n,d} - mu_d) / sigma_d,

then mean intra-class and inter-class Euclidean distances combine into

    GDV = 1/sqrt(D) [ mean_l intra(C_l) - (2/(L(L-1))) sum_{l<m} inter(C_l, C_m) ].

With Y the n x L class-indicator matrix, S = Y^T dist Y holds every class
pair's distance sum: intra(C_l) = S_ll / (n_l (n_l - 1)) and
inter(C_l, C_m) = S_lm / (n_l n_m). 0 means fully overlapping classes; more
negative means better separated. The z-scoring makes the value invariant under
global scaling/shifting, and the Euclidean distance under permutation of
components.

`gdv` scores a `fileio.LabeledPoints` record by its labels, so the GDV of one
split of a point set is `gdv(points.split(name))`.
"""

from collections import Counter

import numpy as np

from .errors import InputError
from .projection import euclidean_distances


def gdv_classes(labels):
    """Classes of `labels` by first appearance; the GDV needs >= 2, of >= 2 points each."""
    counts = Counter(labels)
    if len(counts) < 2:
        raise InputError(f"GDV needs at least 2 classes, got {len(counts)}")
    for c, size in counts.items():
        if size < 2:
            raise InputError(f"class {c!r} has {size} point(s); GDV needs at least 2")
    return list(counts)


def zscore_half(points):
    """0.5 * (x - mu) / sigma per dimension, population sigma; constant dimensions map to 0.
    Points whose sums or squares overflow float64 are refused, since their scale is lost."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) < 2:
        raise InputError("z-scoring needs at least 2 points")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = points.mean(axis=0)
        sigma = points.std(axis=0)  # inf or NaN wherever the mean or a square overflowed
    if not np.isfinite(sigma).all():
        raise InputError("a component's sum or sum of squared deviations overflows float64")
    safe = np.where(sigma == 0.0, 1.0, sigma)
    scaled = 0.5 * (points - mu) / safe
    scaled[:, sigma == 0.0] = 0.0
    return scaled


def gdv(pointset):
    """GDV of a `LabeledPoints` record whose labels pass `gdv_classes`, from S = Y^T dist Y,
    as the report dict that `cogmap gdv --out` writes."""
    labels = pointset.lex.labels
    classes = gdv_classes(labels)
    n_classes = len(classes)
    onehot = np.eye(n_classes)[[classes.index(c) for c in labels]]
    sizes = onehot.sum(axis=0)
    sums = onehot.T @ euclidean_distances(zscore_half(pointset.points)) @ onehot

    intra = (np.diag(sums) / (sizes * (sizes - 1))).tolist()
    a, b = np.triu_indices(n_classes, k=1)
    inter = (sums[a, b] / (sizes[a] * sizes[b])).tolist()
    pairs = [(classes[i], classes[j]) for i, j in zip(a, b)]

    dimension = pointset.points.shape[1]
    value = (np.mean(intra) - 2.0 / (n_classes * (n_classes - 1)) * np.sum(inter)) / np.sqrt(dimension)
    return {"gdv": float(value), "mean_intra_per_class": intra, "mean_inter_per_pair": inter,
            "dimension": dimension, "classes": classes, "class_pairs": pairs}
