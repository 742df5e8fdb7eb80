"""Deterministic file formats: JSON objects, CSV matrices, and the CSVs keyed by
the lexicon's `word,category,split` columns (the lexicon itself and labeled points).

`LabeledPoints` is the record of words and their rows that every stage passes on:
a `Lexicon` and one finite float64 row per lexicon row (an embedding, a predicted
distribution, a map position), checked once when it is built. `split(name)` gives
the rows of one split in order, so the training states are `points.split("train")`.

Every float is written as its shortest round-trip text (Python's `repr`), so parsing
any artifact recovers the exact float64 bits. `float_text` is that rule for one row of
delimited text, so the writers hold one row's text at a time, as `dump_json` does for a
matrix; `float_row` reads such a row back. Every writer fills a temporary file beside
its target and renames it onto the target only when the whole text is written, so a
rejected value or a failed write leaves no file and an existing file stays as it was.
Every reader parses inside `reading(path)`, so a defect in an input file (text that is
not UTF-8, JSON or CSV that does not parse, a value a check rejects, a JSON document
that `load_json`'s record builder cannot take) is an `InputError` naming the file.
A record calls `plain_fields` first in `__post_init__`: one rule per declared field type
(`int`, `float`, `str` for a path, `list[str]` for words, `np.ndarray`) checks it, stored plain.
"""

import csv
import json
import math
import numbers
import os
import secrets
import shutil
import tempfile
from contextlib import closing, contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InputError


def _finite_array(values, name=None):
    """`values` as a float64 array of finite entries, each real by `require_real` (checked once
    per entry type, before the conversion, unless `values` is an int or float array); errors
    name the field `name`. A ragged nesting or an int beyond float range is `malformed`."""
    where = f" in {name}" if name else ""
    try:
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
            entries = np.asarray(values, dtype=object).ravel()
            for value in dict(zip(map(type, entries), entries)).values():
                if not isinstance(value, (list, tuple, np.ndarray)):  # a row of a ragged nesting
                    require_real(f"each entry{where}", value)
        array = np.asarray(values, dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"malformed {name or 'array'} ({exc})") from None
    finite = np.isfinite(array)
    if not finite.all():
        raise InputError(f"non-finite value {float(array[~finite][0])!r}{where}")
    return array


def float_text(values, sep):
    """The `repr` of each entry of one 1-D row, joined by `sep`; rejects a non-finite entry."""
    values = _finite_array(values)
    if values.ndim != 1:
        raise InputError(f"expected one row of values, got shape {values.shape}")
    return sep.join(map(repr, values.tolist()))


def float_row(fields, lineno, word):
    """One row's text fields as floats; a non-numeric or non-finite field names line and word."""
    try:
        row = [float(field) for field in fields]
    except ValueError:
        raise InputError(f"line {lineno}: non-numeric component for {word!r}") from None
    if not all(map(math.isfinite, row)):
        raise InputError(f"line {lineno}: non-finite component for {word!r}")
    return row


def require_int(name, value):
    """`value` as an int if it is an integer (a numpy one too) but not a bool; else an InputError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_real(name, value):
    """`value` as a float if it is a real number (a numpy one too) but not a bool; else an InputError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{name} must be a real number, got {value!r}")
    return float(value)


def require_path(name, value):
    """`value` as text if it is a str or an os.PathLike naming one, and not blank (`Path("")`
    is the working directory); else an InputError."""
    if isinstance(value, (str, os.PathLike)):
        text = os.fspath(value)
        if isinstance(text, str) and text:
            return text
    raise InputError(f"{name} must be a path, got {value!r}")


def require_words(name, value):
    """`value` as a list if it is a list or tuple of str; else an InputError."""
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{name} must be a list of words, got {value!r}")
    for word in value:
        if not isinstance(word, str):
            raise InputError(f"each entry in {name} must be a word, got {word!r}")
    return list(value)


def plain_fields(record):
    """Store each `int`, `float`, `str`, `list[str]` or `np.ndarray` field of a dataclass record,
    a frozen one too, as the int, float, path text, word list or float64 array its rule returns."""
    rules = {int: require_int, float: require_real, str: require_path, list[str]: require_words,
             np.ndarray: lambda name, value: _finite_array(value, name)}
    for f in fields(record):
        if f.type in rules:
            object.__setattr__(record, f.name, rules[f.type](f.name, getattr(record, f.name)))


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


@contextmanager
def committing(out_dir):
    """A staging directory whose files move into `out_dir`, `manifest.json` last, only if
    the block completes: `replacing` for a tree. On any error, KeyboardInterrupt included,
    the staging directory is removed and `out_dir` is left as it was, not created if it
    did not exist. Staging happens in `out_dir`, or in its nearest existing ancestor."""
    out_dir = Path(out_dir)
    chain = (out_dir.absolute(), *out_dir.absolute().parents)
    try:
        staging = Path(tempfile.mkdtemp(dir=next(d for d in chain if d.exists())))
    except OSError as exc:  # name the directory asked for, not the staging one
        raise OSError(exc.errno, exc.strerror, os.fspath(out_dir)) from None
    try:
        yield staging
        new = [d for d in chain if not d.exists()]  # the directories the commit creates
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for path in sorted(staging.iterdir(), key=lambda p: p.name == "manifest.json"):
                os.replace(path, out_dir / path.name)
        except BaseException:
            if new:
                shutil.rmtree(new[-1], ignore_errors=True)
            raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)


@contextmanager
def reading(path):
    """Re-raise an InputError, or text that does not decode or parse, as an InputError naming `path`."""
    try:
        yield
    except (InputError, UnicodeDecodeError, json.JSONDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: {exc}") from None


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


def load_json(path, build, what):
    """`build(doc)` of the JSON document in `path`; a NaN or Infinity, nesting too deep to parse
    or a Key/Type/Value/OverflowError of `build` (as `malformed <what>`) is an InputError."""
    def reject(constant):
        raise InputError(f"non-finite value {constant}")

    with open(path, encoding="utf-8") as fh, reading(path):
        try:
            doc = json.load(fh, parse_constant=reject)
        except RecursionError:  # only here: elsewhere one is the program's own fault
            raise InputError("JSON nested too deeply to parse") from None
        try:
            return build(doc)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed {what} ({exc})") from None


def save_matrix_csv(values, path):
    """One row per line, comma separated, shortest round-trip decimals."""
    with replacing(path) as fh:
        for row in np.asarray(values, dtype=np.float64):
            fh.write(float_text(row, ",") + "\n")


SPLITS = ("train", "validation")
KEY_COLUMNS = ["word", "category", "split"]


@dataclass
class Lexicon:
    """The `word,category,split` columns of a keyed CSV."""

    words: list[str]
    labels: list[str]
    splits: list[str]

    def __post_init__(self):
        plain_fields(self)
        if not len(self.words) == len(self.labels) == len(self.splits):
            raise InputError("words, labels and splits must have equal length")


@dataclass
class LabeledPoints:
    """A lexicon and one finite float64 row per lexicon row, with at least one row and one
    component: the words and their embeddings, predicted distributions or map positions."""

    lex: Lexicon
    points: np.ndarray

    def __post_init__(self):
        plain_fields(self)
        if self.points.ndim != 2 or 0 in self.points.shape:
            raise InputError("points must be an (n, >= 1) array with n >= 1, "
                             f"got shape {self.points.shape}")
        if len(self.lex.words) != len(self.points):
            raise InputError(f"{len(self.lex.words)} lexicon rows for {len(self.points)} points")

    def split(self, name):
        """The record of the rows in one split ("train", "validation" or "all"), in order."""
        rows = [i for i, split in enumerate(self.lex.splits) if name in (split, "all")]
        if not rows:
            raise InputError(f"no points with split {name!r}")
        columns = (self.lex.words, self.lex.labels, self.lex.splits)
        lex = Lexicon(*([column[i] for i in rows] for column in columns))
        return LabeledPoints(lex, self.points[rows])


def _keyed_rows(path):
    """Read a CSV whose columns start `word,category,split`: yields the header, then
    `(line number, fields)` per row, blank lines skipped. Every check on the key
    columns is made here, naming the line: the header prefix, the field count, an
    empty word or category, the split name, a duplicate word, and a file with no
    rows. Its callers read it inside `reading(path)`, which names the file.
    """
    seen = set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header[:3] != KEY_COLUMNS:
            raise InputError("line 1: expected header starting `word,category,split`")
        yield header
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise InputError(f"line {lineno}: expected {len(header)} fields, found {len(rec)}")
            word, category, split = rec[:3]
            if not word:
                raise InputError(f"line {lineno}: empty word")
            if not category:
                raise InputError(f"line {lineno}: empty category for {word!r}")
            if split not in SPLITS:
                raise InputError(f"line {lineno}: unknown split {split!r}")
            if word in seen:
                raise InputError(f"line {lineno}: duplicate word {word!r}")
            seen.add(word)
            yield lineno, rec
    if not seen:
        raise InputError("no data rows")


def load_lexicon(path):
    """Load a lexicon CSV with header exactly `word,category,split`.

    The training rows come first, then the validation rows, each in file
    order, so row i of the training split is training state i. Category
    order, wherever it matters (the map legend, the GDV classes), is first
    appearance in these rows: `list(dict.fromkeys(labels))`.
    """
    with reading(path), closing(_keyed_rows(path)) as rows:
        if next(rows) != KEY_COLUMNS:
            raise InputError("line 1: expected header `word,category,split`")
        records = sorted((rec for _, rec in rows), key=lambda rec: SPLITS.index(rec[2]))  # stable
    return Lexicon(*zip(*records))


def _csv_field(name):
    """`name` bare, or in double quotes with inner quotes doubled if it holds `,`, `"`, CR or LF."""
    name = str(name)
    return '"' + name.replace('"', '""') + '"' if any(c in name for c in ',"\r\n') else name


def save_labeled_points_csv(path, points, component_names=None):
    """CSV of a `LabeledPoints` record: the `word,category,split` columns followed by one
    column per component, written one row at a time, as `load_labeled_points_csv` reads back."""
    lex, values = points.lex, points.points
    if component_names is None:
        component_names = [f"v{i}" for i in range(values.shape[1])]
    elif len(component_names) != values.shape[1]:
        raise InputError("component_names length must match the point dimension")
    with replacing(path) as fh:
        fh.write(",".join(map(_csv_field, KEY_COLUMNS + list(component_names))) + "\n")
        for *keys, row in zip(lex.words, lex.labels, lex.splits, values):
            fh.write(",".join(map(_csv_field, keys)) + "," + float_text(row, ",") + "\n")


def load_labeled_points_csv(path):
    """The `LabeledPoints` of a labeled point CSV, rows in file order."""
    keys, values = [], []
    with reading(path), closing(_keyed_rows(path)) as rows:
        width = len(next(rows)) - 3
        if width == 0:
            raise InputError("no component columns after `word,category,split`")
        for lineno, rec in rows:
            keys.append(rec[:3])
            values.append(float_row(rec[3:], lineno, rec[0]))
        return LabeledPoints(Lexicon(*zip(*keys)), np.array(values).reshape(len(keys), width))
