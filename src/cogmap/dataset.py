"""Word-vector file parsing, the labeled lexicon, and training-example assembly."""

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .fileio import format_float

SPLITS = ("train", "validation")


@dataclass
class EmbeddingTable:
    """Vocabulary of dense word vectors sharing one dimension.

    Keys are case-sensitive; vectors are finite, non-zero float64 arrays.
    """

    dimension: int
    entries: dict

    def __post_init__(self):
        if self.dimension < 1:
            raise InputError(f"embedding dimension must be positive, got {self.dimension}")
        for word, vec in self.entries.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (self.dimension,):
                raise InputError(
                    f"vector for {word!r} has {vec.size} components, expected {self.dimension}"
                )
            if not np.all(np.isfinite(vec)):
                raise InputError(f"vector for {word!r} has a non-finite component")
            if not np.any(vec):
                raise InputError(f"vector for {word!r} is all zeros")
            self.entries[word] = vec

    def __contains__(self, word):
        return word in self.entries

    def __getitem__(self, word):
        try:
            return self.entries[word]
        except KeyError:
            raise InputError(f"word {word!r} missing from embedding table") from None

    def __len__(self):
        return len(self.entries)

    @property
    def words(self):
        return list(self.entries)


def load_embeddings(path):
    """Parse a vector-text file: header `<count> <dimension>`, then `<word> <v1> ... <vD>` lines.

    Fields are separated by single spaces; trailing whitespace on a vector
    line (common in fastText `.vec` files) is ignored. Malformed headers, wrong
    component counts, duplicates, non-finite components, and zero vectors are
    all rejected with the offending line number.
    """
    entries = {}
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
            if word in entries:
                raise InputError(f"{path}: line {lineno}: duplicate word {word!r}")
            try:
                vec = np.array([float(tok) for tok in fields[1:]], dtype=np.float64)
            except ValueError:
                raise InputError(f"{path}: line {lineno}: non-numeric component for {word!r}") from None
            if not np.all(np.isfinite(vec)):
                raise InputError(f"{path}: line {lineno}: non-finite component for {word!r}")
            if not np.any(vec):
                raise InputError(f"{path}: line {lineno}: zero vector for {word!r}")
            entries[word] = vec

    if len(entries) != count:
        raise InputError(f"{path}: header declares {count} words but file holds {len(entries)}")
    return EmbeddingTable(dimension=dim, entries=entries)


def save_embeddings(table, path):
    """Write vector-text with shortest round-trip components (bit-exact reload)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table)} {table.dimension}\n")
        for word, vec in table.entries.items():
            fh.write(word + " " + " ".join(format_float(x) for x in vec) + "\n")


@dataclass
class Lexicon:
    """Ordered training words (defining state indices 0..N-1) plus validation words."""

    training: list
    validation: list
    categories: list = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for word, category in self.training + self.validation:
            if word in seen:
                raise InputError(f"duplicate word {word!r} in lexicon")
            seen.add(word)
            if not category:
                raise InputError(f"empty category for word {word!r}")
            if category not in self.categories:
                raise InputError(f"category {category!r} of {word!r} not in category list")

    @property
    def n_states(self):
        return len(self.training)

    @property
    def train_words(self):
        return [w for w, _ in self.training]

    @property
    def train_categories(self):
        return [c for _, c in self.training]

    @property
    def validation_words(self):
        return [w for w, _ in self.validation]

    @property
    def validation_categories(self):
        return [c for _, c in self.validation]

    def state_index(self, word):
        for i, (w, _) in enumerate(self.training):
            if w == word:
                return i
        raise InputError(f"word {word!r} is not a training state")


def load_lexicon(path):
    """Load a lexicon CSV with required header `word,category,split`.

    Training order equals file order restricted to `train` records; category
    order is first appearance in the file.
    """
    training, validation, categories = [], [], []
    seen = set()
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty lexicon file") from None
        if header != ["word", "category", "split"]:
            raise InputError(f"{path}: line 1: expected header `word,category,split`")
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 3:
                raise InputError(f"{path}: line {lineno}: expected 3 fields, found {len(rec)}")
            word, category, split = rec
            if not word:
                raise InputError(f"{path}: line {lineno}: empty word")
            if not category:
                raise InputError(f"{path}: line {lineno}: empty category for {word!r}")
            if split not in SPLITS:
                raise InputError(f"{path}: line {lineno}: unknown split {split!r}")
            if word in seen:
                raise InputError(f"{path}: line {lineno}: duplicate word {word!r}")
            seen.add(word)
            if category not in categories:
                categories.append(category)
            (training if split == "train" else validation).append((word, category))
    return Lexicon(training=training, validation=validation, categories=categories)


@dataclass
class ExampleSet:
    """Aligned inputs (embeddings), targets (row distributions), labels, and words."""

    inputs: np.ndarray
    targets: np.ndarray
    labels: list
    words: list

    def __post_init__(self):
        n = len(self.words)
        if not (len(self.inputs) == len(self.targets) == len(self.labels) == n):
            raise InputError("inputs, targets, labels, and words must have equal length")
        if n and (np.any(self.targets < 0) or np.max(np.abs(self.targets.sum(axis=1) - 1.0)) > 1e-9):
            raise InputError("every target must be a probability distribution")

    def __len__(self):
        return len(self.words)


def build_examples(table, lex, sr):
    """Training examples against a successor matrix over the training states.

    Each training word's target is its own SR row normalized to sum 1.
    """
    n = lex.n_states
    values = np.asarray(sr.values, dtype=np.float64)
    if values.shape != (n, n):
        raise InputError(f"successor matrix is {values.shape}, lexicon has {n} training states")
    row_sums = values.sum(axis=1)
    if np.any(row_sums <= 0):
        raise InputError("successor matrix has a non-positive row sum")
    return ExampleSet(inputs=np.stack([table[w] for w in lex.train_words]),
                      targets=values / row_sums[:, None],
                      labels=list(lex.train_categories), words=list(lex.train_words))
