"""Word-vector file parsing and training-example assembly.

The loader checks every line of a vector file but keeps only the requested
words' rows, which each stage then takes with their words as `LabeledPoints`.
Vector files are only read: no cogmap stage writes one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
# load_lexicon is re-exported, with Lexicon: the benchmark's tracer looks it up in cogmap.dataset
from .fileio import Lexicon, float_row, load_lexicon, plain_fields, reading  # noqa: F401


def load_embeddings(path, words):
    """The vectors of `words`, one float64 row each in that order, from a vector-text file.

    The file is a header `<count> <dimension>`, then `<word> <v1> ... <vD>` lines. Fields
    are separated by single spaces; trailing whitespace on a vector line (common in
    fastText `.vec` files) is ignored. Every line is checked, whether or not its word is
    requested: malformed headers, wrong component counts, duplicates, non-numeric or
    non-finite components (`float_row`, as for a labeled-points CSV) and zero vectors
    are rejected with the line number. Only the requested rows are kept, so memory grows
    with `words`, not with the file.
    """
    seen = set()
    kept = dict.fromkeys(words)
    with open(path, encoding="utf-8") as fh, reading(path):
        header = fh.readline()
        if not header:
            raise InputError("line 1: empty file, expected `<count> <dimension>` header")
        try:  # two space-separated integers; a wrong field count fails the unpacking
            count, dim = map(int, header.rstrip("\n").split(" "))
        except ValueError:
            raise InputError(f"line 1: malformed header {header.strip()!r}") from None
        if count < 0 or dim < 1:
            raise InputError("line 1: header needs count >= 0 and dimension >= 1")

        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip()
            if not line:
                continue
            fields = line.split(" ")
            word = fields[0]
            if len(fields) != dim + 1:
                raise InputError(f"line {lineno}: expected {dim} components for {word!r}, "
                                 f"found {len(fields) - 1}")
            if word in seen:
                raise InputError(f"line {lineno}: duplicate word {word!r}")
            seen.add(word)
            vec = np.array(float_row(fields[1:], lineno, word))
            if not np.any(vec):
                raise InputError(f"line {lineno}: zero vector for {word!r}")
            if word in kept:
                kept[word] = vec
        if len(seen) != count:
            raise InputError(f"header declares {count} words but file holds {len(seen)}")
    for word, vec in kept.items():
        if vec is None:
            raise InputError(f"lexicon word {word!r} missing from embedding table")
    return np.array([kept[word] for word in words]).reshape(len(words), dim)


@dataclass
class ExampleSet:
    """Aligned inputs (embedding rows) and targets (row distributions)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        plain_fields(self)
        if len(self.inputs) != len(self.targets):
            raise InputError("inputs and targets must have equal length")
        if len(self):
            with np.errstate(over="ignore", invalid="ignore"):
                row_sums = self.targets.sum(axis=1)
            if not np.isfinite(row_sums).all():
                raise InputError("target row sums overflow float64")
            if np.any(self.targets < 0) or np.max(np.abs(row_sums - 1.0)) > 1e-9:
                raise InputError("every target must be a probability distribution")

    def __len__(self):
        return len(self.inputs)


def build_examples(states, sr):
    """Training examples from the training states' `LabeledPoints` and an SR over the same words
    in the same order: the input of state i is its embedding, its target SR row i normalized
    to sum 1 (SuccessorMatrix makes every row sum positive)."""
    words = states.lex.words
    if sr.state_words != words:
        if sr.n != len(words):
            raise InputError(f"{sr.n} state words for {len(words)} training words of the lexicon")
        i, state, word = next((i, s, w) for i, (s, w) in enumerate(zip(sr.state_words, words))
                              if s != w)
        raise InputError(f"state word {i + 1} is {state!r}, but training word {i + 1} of the "
                         f"lexicon is {word!r}")
    return ExampleSet(inputs=states.points, targets=sr.values / sr.values.sum(axis=1)[:, None])
