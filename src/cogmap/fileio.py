"""Deterministic file formats: JSON documents, CSV matrices, labeled point CSVs.

Every float is written as its shortest round-trip text (Python's `repr`), so
parsing any artifact recovers the exact float64 bits. Every writer fills a
temporary file beside its target and renames it onto the target only when the
whole text is written, so a rejected value or a failed write leaves no file
and an existing file stays as it was.
"""

import csv
import json
import math
import os
import secrets
from contextlib import contextmanager

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


@contextmanager
def replacing(path):
    """A text file for writing that replaces `path` only if the block completes.

    The file is created beside `path` with the mode a plain `open(path, "w")`
    gives a new file; on any error it is removed and `path` is left as it was.
    A symlink keeps pointing at its replaced target, and an existing path that
    is not a regular file (a pipe, a terminal, `/dev/stdout`) is written in
    place, since there is no file to replace.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise InputError(f"cannot serialize {type(obj).__name__} to JSON")


def _dumps(value):
    try:
        return json.dumps(value, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise InputError(f"cannot serialize to JSON: {exc}") from None


def dump_json(obj, path):
    """Write `json.dumps(obj)` as one line, floats as `repr`.

    A 2-D array value of a top-level dict is encoded and written one row at a
    time, so memory stays near one row's text; the bytes are those of one
    `json.dumps` call. A non-finite value leaves no file.
    """
    with replacing(path) as fh:
        if not isinstance(obj, dict):
            fh.write(_dumps(obj) + "\n")
            return
        fh.write("{")
        for i, (key, value) in enumerate(obj.items()):
            fh.write(", " if i else "")
            if isinstance(value, np.ndarray) and value.ndim == 2:
                # the key as json.dumps spells it ('"key": '), then the rows one by one
                fh.write(_dumps({key: None})[1:-len("null}")] + "[")
                for j, row in enumerate(value):
                    fh.write((", " if j else "") + _dumps(row.tolist()))
                fh.write("]")
            else:
                fh.write(_dumps({key: value})[1:-1])
        fh.write("}\n")


def load_json(path):
    """Parse a JSON file; a NaN or Infinity in it is an input error naming the file."""
    def reject(constant):
        raise InputError(f"{path}: non-finite value {constant}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def save_matrix_csv(values, path):
    """One row per line, comma separated, shortest round-trip decimals."""
    values = _finite_array(values)
    with replacing(path) as fh:
        for row in values.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


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
    with replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a name only if it needs it
        writer.writerow(header)
        for word, cat, split, row in zip(words, categories, splits, values.tolist()):
            writer.writerow([word, cat, split, *map(repr, row)])


def load_labeled_points_csv(path):
    """Returns (words, categories, splits, values) from a labeled point CSV."""
    words, cats, splits, rows = [], [], [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        if header[:3] != ["word", "category", "split"]:
            raise InputError(f"{path}: expected header starting `word,category,split`")
        if len(header) == 3:
            raise InputError(f"{path}: no component columns after `word,category,split`")
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
