"""File writers: floats read back bit for bit, non-finite values are rejected."""

import math

import numpy as np
import pytest

from cogmap.errors import InputError
from cogmap.fileio import (dump_json, load_json, load_labeled_points_csv,
                           save_labeled_points_csv, save_matrix_csv)

# smallest subnormal, negative zero, huge, non-terminating, integral, past 2^53,
# and the numpy scalar types the pipeline hands to the writers
EDGES = [5e-324, -0.0, 1e300, 1.0 / 3.0, 2.0, 1e16, np.float64(0.1), np.int64(7)]
NONFINITE = [math.nan, math.inf, -math.inf]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_json_roundtrip_is_bit_exact(tmp_path):
    path = tmp_path / "doc.json"
    dump_json({"list": EDGES, "array": np.array([EDGES, EDGES[::-1]], dtype=np.float64)},
              path)
    back = load_json(path)
    np.testing.assert_array_equal(bits(back["list"]), bits(EDGES))
    assert type(back["list"][-1]) is int
    np.testing.assert_array_equal(bits(back["array"]), bits([EDGES, EDGES[::-1]]))
    assert path.read_text(encoding="utf-8").count("\n") == 1


def test_matrix_csv_roundtrip_is_bit_exact(tmp_path):
    path = tmp_path / "m.csv"
    save_matrix_csv([EDGES, EDGES[::-1]], path)
    back = np.loadtxt(path, delimiter=",", ndmin=2)
    np.testing.assert_array_equal(bits(back), bits([EDGES, EDGES[::-1]]))


def test_labeled_points_roundtrip_is_bit_exact(tmp_path):
    path = tmp_path / "p.csv"
    save_labeled_points_csv(path, ["a", "b"], ["x", "y"], ["train", "validation"],
                            [EDGES, EDGES[::-1]])
    words, cats, splits, values = load_labeled_points_csv(path)
    assert (words, cats, splits) == (["a", "b"], ["x", "y"], ["train", "validation"])
    np.testing.assert_array_equal(bits(values), bits([EDGES, EDGES[::-1]]))


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("wrap", [list, np.array])
def test_json_rejects_nonfinite_and_leaves_no_file(tmp_path, bad, wrap):
    path = tmp_path / "doc.json"
    with pytest.raises(InputError):
        dump_json({"values": wrap([1.0, bad])}, path)
    assert not path.exists()


def test_json_rejects_unknown_types_and_leaves_no_file(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(InputError, match="set"):
        dump_json({"values": {1.0}}, path)
    assert not path.exists()


@pytest.mark.parametrize("bad", NONFINITE)
def test_csv_writers_reject_nonfinite(tmp_path, bad):
    # the rejected value sits in the second row: the first must not reach a file
    rows = [[1.0, 2.0], [3.0, bad]]
    matrix, points = tmp_path / "m.csv", tmp_path / "p.csv"
    with pytest.raises(InputError, match="non-finite"):
        save_matrix_csv(rows, matrix)
    assert not matrix.exists()
    with pytest.raises(InputError, match="non-finite"):
        save_labeled_points_csv(points, ["a", "b"], ["x", "y"], ["train", "train"], rows)
    assert not points.exists()
