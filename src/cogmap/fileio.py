"""Deterministic file formats: JSON objects, CSV matrices, and the CSVs keyed by
the lexicon's `word,category,split` columns (the lexicon itself and labeled points).

Every float is written as its shortest round-trip text (Python's `repr`), so
parsing any artifact recovers the exact float64 bits. Every writer fills a
temporary file beside its target and renames it onto the target only when the
whole text is written, so a rejected value or a failed write leaves no file
and an existing file stays as it was.
"""

import csv
import json
import os
import secrets
from contextlib import closing, contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InputError


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
    """Write `json.dumps(obj)` of a dict as one line, floats as `repr`.

    A 2-D array value is encoded and written one row at a time, so memory
    stays near one row's text; the bytes are those of one `json.dumps` call.
    A non-finite value leaves no file.
    """
    with replacing(path) as fh:
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


SPLITS = ("train", "validation")
KEY_COLUMNS = ["word", "category", "split"]


@dataclass
class Lexicon:
    """The `word,category,split` columns of a keyed CSV. A loaded lexicon lists its
    training rows first: row i < n_states is training state i."""

    words: list
    labels: list
    splits: list

    def __post_init__(self):
        if not len(self.words) == len(self.labels) == len(self.splits):
            raise InputError("words, labels and splits must have equal length")

    @property
    def n_states(self):
        return self.splits.count("train")

    def rows(self, split):
        """Indices of the rows in one split, "train" or "validation", or of "all" rows."""
        keep = [i for i, name in enumerate(self.splits) if split in (name, "all")]
        if not keep:
            raise InputError(f"no points with split {split!r}")
        return keep

    def subset(self, rows):
        """The record of the given rows, in that order."""
        return Lexicon(*([column[i] for i in rows] for column in (self.words, self.labels, self.splits)))


def _keyed_rows(path):
    """Read a CSV whose columns start `word,category,split`: yields the header, then
    `(line number, fields)` per row, blank lines skipped. Every check on the key
    columns is made here, naming the file and line: the header prefix, the field
    count, an empty word or category, the split name, a duplicate word, and a
    file with no rows.
    """
    seen = set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != KEY_COLUMNS:
            raise InputError(f"{path}: line 1: expected header starting `word,category,split`")
        yield header
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise InputError(f"{path}: line {lineno}: expected {len(header)} fields, found {len(rec)}")
            word, category, split = rec[:3]
            if not word:
                raise InputError(f"{path}: line {lineno}: empty word")
            if not category:
                raise InputError(f"{path}: line {lineno}: empty category for {word!r}")
            if split not in SPLITS:
                raise InputError(f"{path}: line {lineno}: unknown split {split!r}")
            if word in seen:
                raise InputError(f"{path}: line {lineno}: duplicate word {word!r}")
            seen.add(word)
            yield lineno, rec
    if not seen:
        raise InputError(f"{path}: no data rows")


def load_lexicon(path):
    """Load a lexicon CSV with header exactly `word,category,split`.

    The training rows come first, then the validation rows, each in file
    order. Category order, wherever it matters (the map legend, the GDV
    classes), is first appearance in these rows: `list(dict.fromkeys(labels))`.
    """
    with closing(_keyed_rows(path)) as rows:
        if next(rows) != KEY_COLUMNS:
            raise InputError(f"{path}: line 1: expected header `word,category,split`")
        records = sorted((rec for _, rec in rows), key=lambda rec: SPLITS.index(rec[2]))  # stable
    return Lexicon(*map(list, zip(*records)))


def save_labeled_points_csv(path, lex, values, component_names=None):
    """CSV with the `word,category,split` columns of `lex` followed by one column per component."""
    values = _finite_array(values)
    if len(lex.words) != len(values):
        raise InputError(f"{len(lex.words)} lexicon rows for {len(values)} points")
    width = values.shape[1] if values.ndim == 2 else 0
    if component_names is None:
        component_names = [f"v{i}" for i in range(width)]
    elif len(component_names) != width:
        raise InputError("component_names length must match the point dimension")
    with replacing(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")  # quotes a name only if it needs it
        writer.writerow(KEY_COLUMNS + list(component_names))
        for word, cat, split, row in zip(lex.words, lex.labels, lex.splits, values.tolist()):
            writer.writerow([word, cat, split, *map(repr, row)])


def load_labeled_points_csv(path):
    """Returns (lex, values) from a labeled point CSV, rows in file order."""
    keys, values = [], []
    with closing(_keyed_rows(path)) as rows:
        width = len(next(rows)) - 3
        if width == 0:
            raise InputError(f"{path}: no component columns after `word,category,split`")
        for lineno, rec in rows:
            keys.append(rec[:3])
            try:
                values.append([float(tok) for tok in rec[3:]])
            except ValueError:
                raise InputError(f"{path}: line {lineno}: non-numeric component") from None
    try:
        return Lexicon(*map(list, zip(*keys))), _finite_array(np.array(values).reshape(len(keys), width))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
