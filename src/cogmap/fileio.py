"""Deterministic file formats: JSON documents, CSV matrices, labeled point CSVs.

Every float is written as its shortest round-trip text (Python's `repr`), so
parsing any artifact recovers the exact float64 bits. Non-finite values are
rejected before the file is opened, so a rejected value leaves no file.
"""

import csv
import json
import math

import numpy as np

from .errors import InputError


def format_float(x):
    """The shortest text that parses back to the same float64 (`repr`)."""
    x = float(x)
    if not math.isfinite(x):
        raise InputError(f"cannot serialize non-finite value {x!r}")
    return repr(x)


def _finite_array(values):
    """`values` as a float64 array, rejected if any entry is NaN or infinite."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    if not finite.all():
        raise InputError(f"non-finite value {float(values[~finite][0])!r}")
    return values


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise InputError(f"cannot serialize {type(obj).__name__} to JSON")


def dump_json(obj, path):
    """Write one line of JSON, floats as `repr`; a non-finite value leaves no file."""
    try:
        text = json.dumps(obj, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise InputError(f"cannot serialize to JSON: {exc}") from None
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def load_json(path):
    """Parse a JSON file; a NaN or Infinity in it is an input error naming the file."""
    def reject(constant):
        raise InputError(f"{path}: non-finite value {constant}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def save_matrix_csv(values, path):
    """One row per line, comma separated, shortest round-trip decimals."""
    values = _finite_array(values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in values:
            fh.write(",".join(format_float(x) for x in row))
            fh.write("\n")


def save_labeled_points_csv(path, words, categories, splits, values, component_names=None):
    """CSV with `word,category,split` key columns followed by one column per component."""
    values = _finite_array(values)
    if not (len(words) == len(categories) == len(splits) == len(values)):
        raise InputError("words, categories, splits, and values must have equal length")
    width = values.shape[1] if values.ndim == 2 else 0
    if component_names is None:
        component_names = [f"v{i}" for i in range(width)]
    elif len(component_names) != width:
        raise InputError("component_names length must match the point dimension")
    header = ["word", "category", "split"] + list(component_names)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for word, cat, split, row in zip(words, categories, splits, values):
            fields = [word, cat, split] + [format_float(x) for x in row]
            fh.write(",".join(fields) + "\n")


def load_labeled_points_csv(path):
    """Returns (words, categories, splits, values) from a labeled point CSV."""
    words, cats, splits, rows = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        if header[:3] != ["word", "category", "split"]:
            raise InputError(f"{path}: expected header starting `word,category,split`")
        width = len(header) - 3
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise InputError(f"{path}: line {lineno}: expected {len(header)} fields, found {len(rec)}")
            words.append(rec[0])
            cats.append(rec[1])
            splits.append(rec[2])
            try:
                rows.append([float(tok) for tok in rec[3:]])
            except ValueError:
                raise InputError(f"{path}: line {lineno}: non-numeric component") from None
    if not words:
        raise InputError(f"{path}: no data rows")
    try:
        return words, cats, splits, _finite_array(np.array(rows).reshape(len(words), width))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
