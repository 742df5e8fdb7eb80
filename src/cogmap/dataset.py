"""Word-vector file parsing and training-example assembly.

The loader checks every line of a vector file but keeps only the requested
words, as one matrix whose rows the pipeline hands to each stage.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
# the lexicon names are re-exported: fileio reads every CSV keyed by word,category,split
from .fileio import SPLITS, Lexicon, _finite_array, load_lexicon, replacing  # noqa: F401


def load_embeddings(path, words):
    """The vectors of `words`, one float64 row each in that order, from a vector-text file.

    The file is a header `<count> <dimension>`, then `<word> <v1> ... <vD>`
    lines. Fields are separated by single spaces; trailing whitespace on a
    vector line (common in fastText `.vec` files) is ignored. Every line is
    checked, whether or not its word is requested: malformed headers, wrong
    component counts, duplicates, non-finite components, and zero vectors are
    all rejected with the offending line number. Only the requested rows are
    kept, so memory grows with `words`, not with the file.
    """
    seen = set()
    kept = dict.fromkeys(words)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise InputError(f"{path}: line 1: empty file, expected `<count> <dimension>` header")
        parts = header.rstrip("\n").split(" ")
        if len(parts) != 2:
            raise InputError(f"{path}: line 1: malformed header {header.strip()!r}")
        try:
            count, dim = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"{path}: line 1: malformed header {header.strip()!r}") from None
        if count < 0 or dim < 1:
            raise InputError(f"{path}: line 1: header needs count >= 0 and dimension >= 1")

        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip()
            if not line:
                continue
            fields = line.split(" ")
            word = fields[0]
            if len(fields) != dim + 1:
                raise InputError(
                    f"{path}: line {lineno}: expected {dim} components for {word!r}, "
                    f"found {len(fields) - 1}"
                )
            if word in seen:
                raise InputError(f"{path}: line {lineno}: duplicate word {word!r}")
            seen.add(word)
            try:
                vec = np.array([float(tok) for tok in fields[1:]], dtype=np.float64)
            except ValueError:
                raise InputError(f"{path}: line {lineno}: non-numeric component for {word!r}") from None
            if not np.all(np.isfinite(vec)):
                raise InputError(f"{path}: line {lineno}: non-finite component for {word!r}")
            if not np.any(vec):
                raise InputError(f"{path}: line {lineno}: zero vector for {word!r}")
            if word in kept:
                kept[word] = vec

    if len(seen) != count:
        raise InputError(f"{path}: header declares {count} words but file holds {len(seen)}")
    for word, vec in kept.items():
        if vec is None:
            raise InputError(f"lexicon word {word!r} missing from embedding table")
    return np.array([kept[word] for word in words]).reshape(len(words), dim)


def save_embeddings(entries, path):
    """Write a `{word: vector}` dict as vector-text; every component reloads bit-exactly.

    Each vector is checked for a non-finite component as it is written.
    """
    dim = len(next(iter(entries.values()), ()))
    with replacing(path) as fh:
        fh.write(f"{len(entries)} {dim}\n")
        for word, vec in entries.items():
            fh.write(word + " " + " ".join(map(repr, _finite_array(vec).tolist())) + "\n")


@dataclass
class ExampleSet:
    """Aligned inputs (embedding rows) and targets (row distributions)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if len(self.inputs) != len(self.targets):
            raise InputError("inputs and targets must have equal length")
        if len(self) and (np.any(self.targets < 0)
                          or np.max(np.abs(self.targets.sum(axis=1) - 1.0)) > 1e-9):
            raise InputError("every target must be a probability distribution")

    def __len__(self):
        return len(self.inputs)


def build_examples(vecs, sr):
    """Training examples against a successor matrix over the training states.

    Row i of `vecs` is the embedding of training state i; its target is SR
    row i normalized to sum 1.
    """
    n = len(vecs)
    values = np.asarray(sr.values, dtype=np.float64)
    if values.shape != (n, n):
        raise InputError(f"successor matrix is {values.shape}, lexicon has {n} training states")
    row_sums = values.sum(axis=1)
    if np.any(row_sums <= 0):
        raise InputError("successor matrix has a non-positive row sum")
    return ExampleSet(inputs=vecs, targets=values / row_sums[:, None])
