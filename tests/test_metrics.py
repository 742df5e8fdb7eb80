"""GDV: z-scoring, hand-computed values, invariances, and a brute-force oracle."""

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from cogmap.errors import InputError
from cogmap.fileio import load_labeled_points_csv
from cogmap.metrics import LabeledPointSet, gdv, zscore_half

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def gdv_reference(points, labels):
    """Direct transcription of the GDV definition with explicit loops."""
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    mu = points.mean(axis=0)
    sigma = points.std(axis=0)
    scaled = np.zeros_like(points)
    for k in range(d):
        if sigma[k] > 0.0:
            scaled[:, k] = 0.5 * (points[:, k] - mu[k]) / sigma[k]

    classes = []
    for label in labels:
        if label not in classes:
            classes.append(label)

    def dist(i, j):
        return math.sqrt(sum((scaled[i, k] - scaled[j, k]) ** 2 for k in range(d)))

    members = {c: [i for i, l in enumerate(labels) if l == c] for c in classes}
    intra = []
    for c in classes:
        idx = members[c]
        total = sum(dist(idx[a], idx[b])
                    for a in range(len(idx)) for b in range(a + 1, len(idx)))
        intra.append(2.0 * total / (len(idx) * (len(idx) - 1)))
    inter = []
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            ia, ib = members[classes[a]], members[classes[b]]
            total = sum(dist(i, j) for i in ia for j in ib)
            inter.append(total / (len(ia) * len(ib)))
    big_l = len(classes)
    return (sum(intra) / big_l
            - 2.0 / (big_l * (big_l - 1)) * sum(inter)) / math.sqrt(d)


# --------------------------------------------------------------- z-scoring

def test_zscore_two_points():
    np.testing.assert_array_equal(zscore_half([[0.0], [1.0]]), [[-0.5], [0.5]])


def test_zscore_constant_dimension_maps_to_zero():
    points = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
    scaled = zscore_half(points)
    np.testing.assert_array_equal(scaled[:, 1], 0.0)
    assert scaled[:, 0].std() == pytest.approx(0.5, abs=1e-15)


def test_zscore_unit_variance_dimension_is_halved():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(50)
    x = (x - x.mean()) / x.std()
    scaled = zscore_half(x[:, None])
    np.testing.assert_allclose(scaled[:, 0], 0.5 * x, atol=1e-12)


def test_zscore_needs_two_points():
    with pytest.raises(InputError):
        zscore_half([[1.0, 2.0]])


# ------------------------------------------------------------- hand values

def test_hand_fixture_value():
    # two 1-D pairs {0,1} and {10,11}: sigma = sqrt(25.25), intra = .5/sigma,
    # inter = 5/sigma, GDV = -4.5/sigma = -0.8955334711889903
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    report = gdv(LabeledPointSet(points=points, labels=["A", "A", "B", "B"]))
    assert report.gdv == pytest.approx(-0.8955334711889903, abs=1e-12)
    np.testing.assert_allclose(report.mean_intra_per_class,
                               [0.09950371902099892, 0.09950371902099892], atol=1e-12)
    np.testing.assert_allclose(report.mean_inter_per_pair,
                               [0.9950371902099892], atol=1e-12)
    assert report.dimension == 1
    assert report.classes == ["A", "B"]
    assert report.class_pairs == [("A", "B")]


def test_shipped_fixture_file_matches_hand_value():
    lex, values = load_labeled_points_csv(DATA_DIR / "gdv_fixture_1d.csv")
    assert lex.words == ["a0", "a1", "b0", "b1"]
    report = gdv(LabeledPointSet(points=values, labels=lex.labels))
    assert report.gdv == pytest.approx(-0.8955334711889903, abs=1e-12)


def test_coincident_classes_give_positive_value():
    # both classes occupy the same two spots: intra (distinct pairs only) is 1.0
    # but inter includes the zero-distance coincident pairs, so GDV = +0.5
    points = np.array([[0.0], [1.0], [0.0], [1.0]])
    report = gdv(LabeledPointSet(points=points, labels=["A", "A", "B", "B"]))
    assert report.gdv == pytest.approx(0.5, abs=1e-15)


def test_fully_degenerate_points_give_zero():
    points = np.ones((6, 3))
    report = gdv(LabeledPointSet(points=points, labels=["A"] * 3 + ["B"] * 3))
    assert report.gdv == 0.0
    assert math.isfinite(report.gdv)


# ------------------------------------------------------------------ oracle

def test_matches_brute_force_reference():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n_classes = int(rng.integers(2, 5))
        d = int(rng.integers(1, 5))
        labels, rows = [], []
        for c in range(n_classes):
            count = int(rng.integers(2, 6))
            labels += [f"c{c}"] * count
            rows.append(rng.standard_normal((count, d)) + 3.0 * rng.standard_normal(d))
        points = np.vstack(rows)
        report = gdv(LabeledPointSet(points=points, labels=labels))
        assert report.gdv == pytest.approx(gdv_reference(points, labels), abs=1e-12)


# -------------------------------------------------------------- invariances

def random_labeled_set(seed, n_classes=3, per_class=6, d=4):
    rng = np.random.default_rng(seed)
    labels, rows = [], []
    for c in range(n_classes):
        labels += [f"c{c}"] * per_class
        rows.append(rng.standard_normal((per_class, d)) + 2.0 * rng.standard_normal(d))
    return np.vstack(rows), labels


@pytest.mark.parametrize("seed", range(20))
def test_affine_and_permutation_invariance(seed):
    points, labels = random_labeled_set(seed)
    base = gdv(LabeledPointSet(points=points, labels=labels)).gdv

    scaled = gdv(LabeledPointSet(points=3.7 * points - 11.0, labels=labels)).gdv
    assert scaled == pytest.approx(base, abs=1e-9)

    perm_dims = points[:, ::-1].copy()
    assert gdv(LabeledPointSet(points=perm_dims, labels=labels)).gdv == \
        pytest.approx(base, abs=1e-9)

    rng = np.random.default_rng(seed + 1000)
    order = rng.permutation(len(points))
    shuffled = gdv(LabeledPointSet(points=points[order],
                                   labels=[labels[i] for i in order])).gdv
    assert shuffled == pytest.approx(base, abs=1e-9)

    renamed = gdv(LabeledPointSet(points=points,
                                  labels=[l.upper() for l in labels])).gdv
    assert renamed == base


def test_per_dimension_scaling_changes_nothing():
    # z-scoring normalizes each dimension, so anisotropic scaling is absorbed
    points, labels = random_labeled_set(3)
    scales = np.array([1.0, 10.0, 0.1, 5.0])
    rescaled = gdv(LabeledPointSet(points=points * scales, labels=labels)).gdv
    base = gdv(LabeledPointSet(points=points, labels=labels)).gdv
    assert rescaled == pytest.approx(base, abs=1e-9)


# -------------------------------------------------------- separation trends

def test_gdv_decreases_with_separation():
    rng = np.random.default_rng(8)
    cloud_a = rng.standard_normal((40, 2))
    cloud_b = rng.standard_normal((40, 2))
    labels = ["A"] * 40 + ["B"] * 40
    values = []
    for gap in (0.0, 2.5, 5.0, 7.5, 10.0):
        points = np.vstack([cloud_a, cloud_b + np.array([gap, 0.0])])
        values.append(gdv(LabeledPointSet(points=points, labels=labels)).gdv)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert abs(values[0]) < 0.05  # overlapping clouds sit near zero


def test_overlapping_large_clouds_near_zero():
    rng = np.random.default_rng(12)
    points = rng.standard_normal((300, 3))
    labels = ["A"] * 150 + ["B"] * 150
    assert abs(gdv(LabeledPointSet(points=points, labels=labels)).gdv) < 0.05


# ------------------------------------------------------------------ errors

def test_single_class_rejected():
    with pytest.raises(InputError, match="2 classes"):
        gdv(LabeledPointSet(points=np.zeros((4, 2)), labels=["A"] * 4))


def test_singleton_class_rejected():
    with pytest.raises(InputError, match="at least 2"):
        gdv(LabeledPointSet(points=np.zeros((3, 2)), labels=["A", "A", "B"]))


def test_length_mismatch_rejected():
    with pytest.raises(InputError):
        LabeledPointSet(points=np.zeros((3, 2)), labels=["A", "B"])


def test_report_to_dict_structure():
    points, labels = random_labeled_set(5)
    doc = json.loads(json.dumps(asdict(gdv(LabeledPointSet(points=points, labels=labels)))))
    assert set(doc) == {"gdv", "mean_intra_per_class", "mean_inter_per_pair",
                        "dimension", "classes", "class_pairs"}
    assert doc["classes"] == ["c0", "c1", "c2"]
    assert doc["class_pairs"] == [["c0", "c1"], ["c0", "c2"], ["c1", "c2"]]
    assert len(doc["mean_intra_per_class"]) == 3
    assert len(doc["mean_inter_per_pair"]) == 3
