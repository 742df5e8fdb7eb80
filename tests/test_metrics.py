"""GDV: z-scoring, hand-computed values, separation trends and the report.

The shipped fixture's value, the brute-force oracle and the invariances are
acceptance criteria 3 and 4 (`test_acceptance.py`).
"""

import json
import math

import numpy as np
import pytest

from cogmap.metrics import gdv, zscore_half

from oracles import assert_refused, labeled


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


# ------------------------------------------------------------- hand values

def test_coincident_classes_give_positive_value():
    # both classes occupy the same two spots: intra (distinct pairs only) is 1.0
    # but inter includes the zero-distance coincident pairs, so GDV = +0.5
    points = np.array([[0.0], [1.0], [0.0], [1.0]])
    report = gdv(labeled(points, ["A", "A", "B", "B"]))
    assert report["gdv"] == pytest.approx(0.5, abs=1e-15)


def test_fully_degenerate_points_give_zero():
    points = np.ones((6, 3))
    report = gdv(labeled(points, ["A"] * 3 + ["B"] * 3))
    assert report["gdv"] == 0.0
    assert math.isfinite(report["gdv"])


# -------------------------------------------------------- separation trends

def test_gdv_decreases_with_separation():
    rng = np.random.default_rng(8)
    cloud_a = rng.standard_normal((40, 2))
    cloud_b = rng.standard_normal((40, 2))
    labels = ["A"] * 40 + ["B"] * 40
    values = []
    for gap in (0.0, 2.5, 5.0, 7.5, 10.0):
        points = np.vstack([cloud_a, cloud_b + np.array([gap, 0.0])])
        values.append(gdv(labeled(points, labels))["gdv"])
    assert all(b < a for a, b in zip(values, values[1:]))
    assert abs(values[0]) < 0.05  # overlapping clouds sit near zero


def test_overlapping_large_clouds_near_zero():
    rng = np.random.default_rng(12)
    points = rng.standard_normal((300, 3))
    labels = ["A"] * 150 + ["B"] * 150
    assert abs(gdv(labeled(points, labels))["gdv"]) < 0.05


@pytest.mark.parametrize("points, message", [
    (np.zeros(3), "points must be an (n, >= 1) array with n >= 1, got shape (3,)"),
    (np.zeros((3, 2, 1)), "points must be an (n, >= 1) array with n >= 1, got shape (3, 2, 1)"),
    ([[0.0, np.inf], [1.0, 1.0], [2.0, 2.0]], "non-finite value inf in points"),
], ids=["1-d", "3-d", "inf"])
def test_points_must_be_a_finite_n_by_d_array(tmp_path, points, message):
    assert_refused(lambda: labeled(points, ["A", "A", "B"]), message, tmp_path)


def test_report_to_dict_structure():
    rng = np.random.default_rng(5)
    labels = [f"c{c}" for c in range(3) for _ in range(6)]
    points = np.vstack([rng.standard_normal((6, 4)) + 2.0 * rng.standard_normal(4)
                        for _ in range(3)])
    doc = json.loads(json.dumps(gdv(labeled(points, labels))))
    assert set(doc) == {"gdv", "mean_intra_per_class", "mean_inter_per_pair",
                        "dimension", "classes", "class_pairs"}
    assert doc["classes"] == ["c0", "c1", "c2"]
    assert doc["class_pairs"] == [["c0", "c1"], ["c0", "c2"], ["c1", "c2"]]
    assert len(doc["mean_intra_per_class"]) == 3
    assert len(doc["mean_inter_per_pair"]) == 3
