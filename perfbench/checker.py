"""Output checks for cogmap's artifact trees, written without importing cogmap.

Every check recomputes its expected value from the inputs (embedding file,
lexicon, config) or from another artifact with plain numpy, and returns a
list of human-readable failures; an empty list means the tree passed.

Tolerances (absolute unless stated):
    transition entries vs recomputation, row sums      1e-12
    successor matrix vs power sum (Horner form)        1e-11
    prediction row sums                                1e-12
    predictions vs forward pass from the model JSON    1e-10
    GDV vs brute force                                 1e-9
    2-D pairwise distances vs top-2 `eigh` MDS         1e-6 x largest distance
"""

import csv
import json
import re
from pathlib import Path

import numpy as np

TRANSITION_TOL = 1e-12
SR_TOL = 1e-11
ROW_SUM_TOL = 1e-12
FORWARD_TOL = 1e-10
GDV_TOL = 1e-9
MDS_REL_TOL = 1e-6

# the only bytes a rerun may change: the manifest's creation time and the SVG timestamp
VOLATILE = re.compile(rb'"created_utc": "[^"]*"|<!-- generated [^>]* -->')


def read_config(path):
    """Flat `key = value` file with `#` comments, as cogmap reads it."""
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def gamma_tag(gamma):
    return str(float(gamma))


class Inputs:
    """What a run was given: config values, lexicon order and the lexicon words' vectors."""

    def __init__(self, config_path, root):
        self.config = read_config(config_path)
        root = Path(root)
        self.gammas = [float(g) for g in self.config["gammas"].split(",") if g.strip()]
        self.horizon = int(self.config["horizon"])
        zero_diagonal = self.config.get("zero_diagonal", "false").lower()
        self.zero_diagonal = zero_diagonal in ("true", "1", "yes", "on")
        with open(root / self.config["lexicon"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        rows = [r for r in rows if r]
        self.train = [(w, c) for w, c, s in rows if s == "train"]
        self.validation = [(w, c) for w, c, s in rows if s == "validation"]
        wanted = {w for w, _, _ in rows}
        self.vectors = {}
        with open(root / self.config["embeddings"], encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                fields = line.split()
                if fields and fields[0] in wanted:
                    self.vectors[fields[0]] = np.array(fields[1:], dtype=np.float64)

    @property
    def words(self):
        return [w for w, _ in self.train + self.validation]

    @property
    def labels(self):
        return [c for _, c in self.train + self.validation]

    @property
    def splits(self):
        return ["train"] * len(self.train) + ["validation"] * len(self.validation)


def read_matrix(path):
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def read_points(path):
    """(words, categories, splits, values) from a `word,category,split,...` CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh)][1:]
    values = np.array([[float(x) for x in r[3:]] for r in rows], dtype=np.float64)
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows], values


def transition_oracle(inputs):
    """Row-normalised max(0, cosine) over the training words; diagonal 1 (or 0)."""
    vecs = np.stack([inputs.vectors[w] for w, _ in inputs.train])
    unit = vecs / np.sqrt((vecs * vecs).sum(axis=1))[:, None]
    sim = np.clip(unit @ unit.T, 0.0, None)
    np.fill_diagonal(sim, 0.0 if inputs.zero_diagonal else 1.0)
    return sim / sim.sum(axis=1, keepdims=True)


def sr_oracle(transition, gamma, horizon):
    """sum_{k=0..H} gamma^k T^k, evaluated in Horner form I + gT(I + gT(...))."""
    eye = np.eye(len(transition))
    acc = eye.copy()
    for _ in range(horizon):
        acc = eye + gamma * (transition @ acc)
    return acc


def forward_oracle(model, inputs_matrix):
    """softmax(W2 relu(W1 x + b1) + b2) per row, from a model checkpoint dict."""
    w1, b1 = np.array(model["w1"]), np.array(model["b1"])
    w2, b2 = np.array(model["w2"]), np.array(model["b2"])
    hidden = np.maximum(np.einsum("hd,nd->nh", w1, inputs_matrix) + b1, 0.0)
    logits = np.einsum("sh,nh->ns", w2, hidden) + b2
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def gdv_oracle(points, labels):
    """GDV from its definition, summing the distance of every pair of points.

    Dimensions are z-scored with the population sigma and halved (constant
    dimensions become 0); GDV = (mean intra-class mean distance - mean
    inter-class mean distance) / sqrt(D). Memory stays O(n D).
    """
    points = np.asarray(points, dtype=np.float64)
    sigma = points.std(axis=0)
    safe = np.where(sigma > 0.0, sigma, 1.0)
    scaled = np.where(sigma > 0.0, 0.5 * (points - points.mean(axis=0)) / safe, 0.0)
    classes = list(dict.fromkeys(labels))
    cls = np.array([classes.index(label) for label in labels])
    sums = np.zeros((len(classes), len(classes)))
    counts = np.zeros((len(classes), len(classes)))
    for i in range(len(points) - 1):
        dist = np.sqrt(((scaled[i + 1:] - scaled[i]) ** 2).sum(axis=1))
        lo, hi = np.minimum(cls[i], cls[i + 1:]), np.maximum(cls[i], cls[i + 1:])
        np.add.at(sums, (lo, hi), dist)
        np.add.at(counts, (lo, hi), 1.0)
    means = sums / np.where(counts > 0, counts, 1.0)
    intra = np.diag(means).mean()
    inter = means[np.triu_indices(len(classes), k=1)].mean()
    return float((intra - inter) / np.sqrt(points.shape[1]))


def _squared_distances(points):
    """|x_i|^2 + |x_j|^2 - 2 x_i.x_j, clamped at 0; O(n^2) memory."""
    norms = (points * points).sum(axis=1)
    return np.clip(norms[:, None] + norms[None, :] - 2.0 * points @ points.T, 0.0, None)


def _planar_distances(coords):
    """Pairwise distances of 2-D points, by broadcasting (exact to rounding)."""
    return np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))


def mds_oracle_distances(points):
    """Pairwise distances of the top-2 classical MDS of `points`, via LAPACK `eigh`."""
    d2 = _squared_distances(points)
    n = len(points)
    centering = np.eye(n) - 1.0 / n
    evals, evecs = np.linalg.eigh(-0.5 * centering @ d2 @ centering)
    top = np.argsort(evals)[::-1][:2]
    return _planar_distances(evecs[:, top] * np.sqrt(np.clip(evals[top], 0.0, None)))


def _close(name, actual, expected, tol):
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape != expected.shape:
        return [f"{name}: shape {actual.shape}, expected {expected.shape}"]
    err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
    return [] if err <= tol else [f"{name}: max deviation {err:.3g} > {tol:g}"]


def check_transition(out_dir, inputs):
    path = Path(out_dir) / "transition.csv"
    values = read_matrix(path)
    failures = _close("transition.csv", values, transition_oracle(inputs), TRANSITION_TOL)
    if np.any(values < 0.0):
        failures.append("transition.csv: negative entry")
    failures += _close("transition.csv row sums", values.sum(axis=1), np.ones(len(values)), ROW_SUM_TOL)
    return failures


def check_successors(out_dir, inputs, with_json):
    out_dir = Path(out_dir)
    transition = transition_oracle(inputs)
    failures = []
    for gamma in inputs.gammas:
        expected = sr_oracle(transition, gamma, inputs.horizon)
        name = f"sr_gamma_{gamma_tag(gamma)}"
        failures += _close(f"{name}.csv", read_matrix(out_dir / f"{name}.csv"), expected, SR_TOL)
        if with_json:
            doc = json.loads((out_dir / f"{name}.json").read_text(encoding="utf-8"))
            failures += _close(f"{name}.json", np.array(doc["values"]), expected, SR_TOL)
            if doc["state_words"] != [w for w, _ in inputs.train]:
                failures.append(f"{name}.json: state words differ from the lexicon's training order")
    return failures


def check_predictions(path, model_path, inputs):
    """Rows are distributions, keyed like the lexicon, and equal the model's forward pass."""
    path = Path(path)
    words, labels, splits, values = read_points(path)
    if (words, labels, splits) != (inputs.words, inputs.labels, inputs.splits):
        return [f"{path.name}: word/category/split columns differ from the lexicon"]
    failures = []
    if np.any(values < 0.0):
        failures.append(f"{path.name}: negative probability")
    failures += _close(f"{path.name} row sums", values.sum(axis=1), np.ones(len(values)), ROW_SUM_TOL)
    model = json.loads(Path(model_path).read_text(encoding="utf-8"))
    x = np.stack([inputs.vectors[w] for w in words])
    failures += _close(f"{path.name} vs forward pass of {Path(model_path).name}",
                       values, forward_oracle(model, x), FORWARD_TOL)
    return failures


def split_gdvs(values, labels, splits):
    out = {"all": gdv_oracle(values, labels)}
    for split in ("train", "validation"):
        keep = [i for i, s in enumerate(splits) if s == split]
        out[split] = gdv_oracle(values[keep], [labels[i] for i in keep])
    return out


def check_run_tree(out_dir, inputs):
    """Checks the artifact tree of one `cogmap run`."""
    out_dir = Path(out_dir)
    failures = check_transition(out_dir, inputs) + check_successors(out_dir, inputs, with_json=False)
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    runs = {run["gamma"]: run for run in manifest["runs"]}
    if sorted(runs) != sorted(inputs.gammas):
        return failures + [f"manifest.json: gammas {sorted(runs)}, expected {sorted(inputs.gammas)}"]
    for gamma in inputs.gammas:
        tag = gamma_tag(gamma)
        predictions = out_dir / f"predictions_gamma_{tag}.csv"
        failures += check_predictions(predictions, out_dir / f"model_gamma_{tag}.json", inputs)
        _, labels, splits, values = read_points(predictions)
        expected = split_gdvs(values, labels, splits)
        for split, value in expected.items():
            failures += _close(f"manifest gamma={tag} gdv {split}",
                               runs[gamma]["gdv_prediction_space"][split], value, GDV_TOL)
        _, _, _, coords = read_points(out_dir / f"projection_gamma_{tag}.csv")
        oracle = mds_oracle_distances(values)
        failures += _close(f"projection_gamma_{tag}.csv pairwise distances", _planar_distances(coords),
                           oracle, MDS_REL_TOL * float(oracle.max()))
    return failures


def check_chain_tree(out_dir, inputs):
    """Checks what `build-sr`, then `train` -> `predict` -> `gdv` per gamma, wrote."""
    out_dir = Path(out_dir)
    failures = check_transition(out_dir, inputs) + check_successors(out_dir, inputs, with_json=True)
    for gamma in inputs.gammas:
        tag = gamma_tag(gamma)
        predictions = out_dir / f"predictions_gamma_{tag}.csv"
        failures += check_predictions(predictions, out_dir / f"model_gamma_{tag}.json", inputs)
        _, labels, _, values = read_points(predictions)
        report = json.loads((out_dir / f"gdv_gamma_{tag}.json").read_text(encoding="utf-8"))
        failures += _close(f"gdv_gamma_{tag}.json", report["gdv"], gdv_oracle(values, labels), GDV_TOL)
    return failures


def compare_trees(reference_dir, out_dir):
    """Rerun determinism: same file names, same bytes once VOLATILE fields are masked."""
    reference_dir, out_dir = Path(reference_dir), Path(out_dir)
    names = sorted(p.name for p in reference_dir.iterdir())
    got = sorted(p.name for p in out_dir.iterdir())
    if names != got:
        return [f"rerun wrote files {got}, expected {names}"]
    return [f"rerun: {name} differs" for name in names
            if VOLATILE.sub(b"", (reference_dir / name).read_bytes())
            != VOLATILE.sub(b"", (out_dir / name).read_bytes())]
