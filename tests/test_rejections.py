"""The library's rejection contract: each row is a call that must raise an InputError with
one whole message and leave its directory as it found it.

`oracles.assert_refused` checks every row, here and in the parametrized tests that keep
their own names in the other test modules. `EXIT_1` in `test_pipeline_cli.py` is the
commands' side of the contract: a rejection that one of its rows already makes is a row
there, not here. Two guards read the test modules' source: every `match=` states a whole
message, and every helper has one home.
"""

import ast
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

from cogmap.dataset import ExampleSet, build_examples, load_embeddings, load_lexicon
from cogmap.fileio import LabeledPoints, Lexicon, dump_json, save_labeled_points_csv
from cogmap.metrics import gdv, zscore_half
from cogmap.neural import MlpConfig, predict_all, train
from cogmap.pipeline import PipelineConfig, resolve_config
from cogmap.projection import classical_mds, pairwise_euclidean
from cogmap.sr import SuccessorMatrix, TransitionMatrix, successor_matrix

from oracles import assert_refused, flip_chain, init_model, labeled, training_states

TESTS = Path(__file__).parent


class Row(NamedTuple):
    """One call that the library must refuse."""

    id: str
    call: Callable  # takes the row's own directory
    message: str  # the whole str(InputError); {tmp} stands for the row's directory
    files: dict = None  # name under {tmp} -> its text, written before the call


def _reads(id, load, name, text, message):
    """The row in which `load` refuses `text`, written to `name`, naming that file."""
    return Row(id, lambda tmp: load(tmp / name), f"{{tmp}}/{name}: {message}", {name: text})


def _vectors(id, text, message):
    # every line is checked, though only dog and cat are requested
    return _reads(id, lambda path: load_embeddings(path, ["dog", "cat"]), "e.txt", text, message)


def _lexicon(id, text, message):
    return _reads(id, load_lexicon, "l.csv", "word,category,split\n" + text, message)


def _mlp(**overrides):
    return MlpConfig(**{"input_dim": 4, "output_dim": 3, "dropout_rate": 0.0,
                        "learning_rate": 0.05, "epochs": 5, "seed": 1, **overrides})


def _self_containing():
    loop = [1.0]
    loop.append(loop)
    return loop


TWO_BY_TWO = ExampleSet(inputs=np.ones((2, 2)), targets=np.full((2, 2), 0.5))

ROWS = [
    # ------------------------------------------------------------ settings
    Row("resolve-unknown-override-key", lambda tmp: resolve_config(overrides={"velocity": "1"}),
        "unknown config key 'velocity'"),
    # library callers pass file values without parse_config_file's check
    Row("resolve-unknown-file-key", lambda tmp: resolve_config({"epoch": "3"}),
        "unknown config key 'epoch'"),
    Row("resolve-learning-rate-401-digits",
        lambda tmp: resolve_config(overrides={"learning_rate": 10 ** 400}),
        "learning_rate must be within float64 range"),
    Row("resolve-epochs-true", lambda tmp: resolve_config(overrides={"epochs": True}),
        "epochs must be an integer, got True"),
    Row("resolve-gammas-0.5", lambda tmp: resolve_config(overrides={"gammas": 0.5}),
        "gammas must be a nonempty list"),
    # Python refuses the text of an integer past 4,300 digits: its size is checked before any
    # message could print it
    *(Row(f"config-{key}-5001-digits", lambda tmp, key=key: PipelineConfig(**{key: -10 ** 5000}),
          f"{key} must have at most 4300 digits") for key in ("seed", "epochs", "horizon")),
    Row("mlp-input-dim-0", lambda tmp: _mlp(input_dim=0), "layer sizes must be positive"),
    Row("mlp-output-dim--1", lambda tmp: _mlp(output_dim=-1), "layer sizes must be positive"),
    Row("mlp-dropout-rate--0.1", lambda tmp: _mlp(dropout_rate=-0.1),
        "dropout rate must be in [0, 1), got -0.1"),
    Row("mlp-input-dim-4.0", lambda tmp: _mlp(input_dim=4.0),
        "input_dim must be an integer, got 4.0"),
    Row("mlp-output-dim-true", lambda tmp: _mlp(output_dim=True),
        "output_dim must be an integer, got True"),
    # ------------------------------------------------------------- records
    # a ragged record would let zip drop rows from every writer silently
    Row("lexicon-unequal-columns", lambda tmp: Lexicon(["a", "b"], ["x"], ["train", "train"]),
        "words, labels and splits must have equal length"),
    *(Row(f"transition-{case}", lambda tmp, values=values: TransitionMatrix(
          values=values, state_words=["a", "b"]), message)
      for case, values, message in (
          ("row-sum", [[0.6, 0.3], [0.5, 0.5]], "transition rows must sum to 1"),
          ("range", [[1.2, -0.2], [0.5, 0.5]], "transition entries must lie in [0, 1]"),
          # NaN compares false, so the range and row-sum checks let it through
          ("nan", [[np.nan, 1.0], [0.5, 0.5]], "non-finite value nan in values"))),
    Row("successor-gamma-401-digits", lambda tmp: SuccessorMatrix(
        gamma=10 ** 400, horizon=1, values=np.eye(2), state_words=["a", "b"]),
        "gamma must be within float64 range"),
    Row("successor-horizon-5001-digits", lambda tmp: SuccessorMatrix(
        gamma=0.5, horizon=-10 ** 5000, values=np.eye(1), state_words=["a"]),
        "horizon must have at most 4300 digits"),
    # gamma = 10 at horizon 400 would overflow a Python float in its last weight: the scale is
    # checked before any power is taken
    *(Row(f"sr-{case}", lambda tmp, gamma=gamma, horizon=horizon: successor_matrix(
          flip_chain(), gamma, horizon), message)
      for case, gamma, horizon, message in (
          ("gamma--0.1", -0.1, 5, "gamma must be in [0, 1], got -0.1"),
          ("gamma-1.1", 1.1, 5, "gamma must be in [0, 1], got 1.1"),
          ("gamma-10-horizon-400", 10.0, 400, "gamma must be in [0, 1], got 10.0"),
          ("horizon--1", 0.5, -1, "horizon must be non-negative, got -1"))),
    # ------------------------------------------------------------- readers
    _vectors("embeddings-component-count", "1 2\ndog 1 0 0\n",
             "line 2: expected 2 components for 'dog', found 3"),
    _vectors("embeddings-zero-vector", "1 3\ndog 0 0 0\n", "line 2: zero vector for 'dog'"),
    _vectors("embeddings-duplicate-word", "2 2\ndog 1 0\ndog 0 1\n",
             "line 3: duplicate word 'dog'"),
    _vectors("embeddings-non-finite", "1 2\ndog nan 1\n",
             "line 2: non-finite component for 'dog'"),
    _vectors("embeddings-count-mismatch", "3 2\ndog 1 0\ncat 0 1\n",
             "header declares 3 words but file holds 2"),
    _lexicon("lexicon-duplicate-word", "dog,animal,train\ndog,animal,validation\n",
             "line 3: duplicate word 'dog'"),
    _lexicon("lexicon-unknown-split", "dog,animal,test\n", "line 2: unknown split 'test'"),
    _lexicon("lexicon-empty-category", "dog,,train\n", "line 2: empty category for 'dog'"),
    _reads("lexicon-without-header", load_lexicon, "l.csv", "dog,animal,train\n",
           "line 1: expected header starting `word,category,split`"),
    # a labeled-points header is not a lexicon header, though its rows pass the row checks
    _reads("lexicon-with-a-component-column", load_lexicon, "l.csv",
           "word,category,split,v0\ndog,animal,train,1.0\n",
           "line 1: expected header `word,category,split`"),
    _lexicon("lexicon-without-rows", "", "no data rows"),
    # ------------------------------------------------------------- writers
    Row("labeled-points-csv-component-names", lambda tmp: save_labeled_points_csv(
        tmp / "p.csv", LabeledPoints(Lexicon(["a"], ["x"], ["train"]), [[1.0, 2.0]]),
        component_names=["v0"]),
        "component_names length must match the point dimension"),
    Row("json-set", lambda tmp: dump_json({"values": {1.0}}, tmp / "doc.json"),
        "cannot serialize set to JSON"),
    Row("json-self-containing",
        lambda tmp: dump_json({"values": _self_containing()}, tmp / "doc.json"),
        "cannot serialize a value that contains itself to JSON"),
    Row("json-5001-digit-integer", lambda tmp: dump_json({"seed": 10 ** 5000}, tmp / "doc.json"),
        "cannot serialize an integer of more than 4300 digits to JSON"),
    # ------------------------------------------------------ stages and scores
    Row("examples-state-count", lambda tmp: build_examples(
        training_states(np.ones((4, 2)), list("abcd")),
        SuccessorMatrix(gamma=0.5, horizon=1, values=np.eye(3), state_words=list("abc"))),
        "3 state words for 4 training words of the lexicon"),
    # finite targets whose row sums overflow: refused as that, with no numpy warning
    Row("examples-row-sum-overflow", lambda tmp: ExampleSet(inputs=np.ones((2, 2)),
                                                            targets=np.full((2, 2), 1e308)),
        "target row sums overflow float64"),
    Row("train-empty", lambda tmp: train(_mlp(), ExampleSet(np.zeros((0, 4)), np.zeros((0, 3)))),
        "cannot train on an empty example set"),
    Row("train-input-dim", lambda tmp: train(_mlp(input_dim=3, output_dim=2), TWO_BY_TWO),
        "examples have input dim 2, config says 3"),
    Row("train-target-dim", lambda tmp: train(_mlp(input_dim=2, output_dim=5), TWO_BY_TWO),
        "examples have target dim 2, config says 5"),
    # one batch per epoch: the epoch's loss, taken before its only step, is finite, and that
    # step overflows w1 to infinity
    Row("train-non-finite-parameter", lambda tmp: train(
        _mlp(input_dim=2, output_dim=2, learning_rate=1e308, epochs=3),
        ExampleSet(inputs=np.array([[300.0, 100.0], [-300.0, -100.0]]),
                   targets=np.array([[0.8, 0.2], [0.2, 0.8]]))),
        "non-finite parameter w1 at epoch 0"),
    Row("predict-all-input-dim",
        lambda tmp: predict_all(init_model(_mlp()), labeled(np.ones((1, 7)), ["c"])),
        "embeddings have dim 7, model expects 4"),
    Row("zscore-one-point", lambda tmp: zscore_half([[1.0, 2.0]]),
        "z-scoring needs at least 2 points"),
    Row("gdv-one-class", lambda tmp: gdv(labeled(np.zeros((4, 2)), ["A"] * 4)),
        "GDV needs at least 2 classes, got 1"),
    Row("gdv-singleton-class", lambda tmp: gdv(labeled(np.zeros((3, 2)), ["A", "A", "B"])),
        "class 'B' has 1 point(s); GDV needs at least 2"),
    Row("mds-two-points", lambda tmp: classical_mds(labeled([[0.0, 0.0], [1.0, 0.0]], ["c"] * 2)),
        "need at least 3 points to project to 2-D, got 2"),
    Row("pairwise-1-d", lambda tmp: pairwise_euclidean(np.zeros(5)),
        "all points must share one dimension"),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_library_rejection(row, tmp_path, monkeypatch):
    """The row's call raises an InputError whose text is the row's message, whole, and its
    directory, with any file the row reads, is byte-identical afterwards."""
    monkeypatch.chdir(tmp_path)  # a path left to its default lands in the checked directory
    for name, text in (row.files or {}).items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert_refused(lambda: row.call(tmp_path), row.message.replace("{tmp}", str(tmp_path)),
                   tmp_path)


def _anchored(pattern):
    """Whether a `match=` argument is a str or f-string literal that starts `^` and ends `$`."""
    parts = pattern.values if isinstance(pattern, ast.JoinedStr) else [pattern]
    first, last = (getattr(part, "value", None) for part in (parts[0], parts[-1]))
    return (isinstance(first, str) and first.startswith("^")
            and isinstance(last, str) and last.endswith("$"))


def test_every_input_error_match_states_the_whole_message():
    loose = []
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.raises"
                    and [ast.unparse(arg) for arg in node.args] == ["InputError"]):
                loose += [f"{path.name}:{node.lineno}" for keyword in node.keywords
                          if keyword.arg == "match" and not _anchored(keyword.value)]
    assert loose == []


def _imported(node):
    """The names of the modules an import statement may import: `from . import test_x` too."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""] + [alias.name for alias in node.names]
    return []


def test_every_helper_has_one_home():
    # a helper that two modules need lives in oracles.py, so each is written once
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(TESTS.glob("test_*.py")) + [TESTS / "oracles.py"]}
    homes = Counter(node.name for tree in trees.values() for node in tree.body
                    if isinstance(node, ast.FunctionDef))
    tests, strays = set(trees) - {"oracles"}, []
    for module in sorted(tests):
        tree = trees[module]
        strays += [f"{module} imports {name}" for node in ast.walk(tree)
                   for name in _imported(node) if tests & set(name.split("."))]
        strays += [f"{module} defines {node.name} again" for node in tree.body
                   if isinstance(node, ast.FunctionDef) and homes[node.name] > 1]
    assert strays == []
