"""Acceptance criteria for the shipped artifact.

Each test prints (and records for the terminal summary) exactly one line:

    [PASS|FAIL] criterion N (<name>): <measured values>

Criteria 1, 2, and 8 run `cogmap run --config default.cfg` twice on the shipped
dataset; the remaining criteria exercise the GDV, SR, gradient, and MDS
components against independent oracles (`oracles.py`). Each criterion is the
one test of its property: no unit test repeats it.
"""

import json
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from cogmap.cli import main
from cogmap.fileio import load_labeled_points_csv
from cogmap.metrics import gdv
from cogmap.neural import MlpConfig
from cogmap.pipeline import INPUTS
from cogmap.projection import pairwise_euclidean
from cogmap.sr import TransitionMatrix, successor_matrix

from oracles import gdv_reference, gradient_check, labeled, mds, rollout_occupancy_oracle

REPO = Path(__file__).resolve().parents[1]

# all-points GDV targets the shipped dataset is expected to land near;
# proximity is reported in the criterion-1 line but intentionally not asserted
REFERENCE_ALL_GDV = {"1.0": -0.44, "0.3": -0.38}


def record(criterion_log, number, name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number} ({name}): {detail}"
    criterion_log.append(line)
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """Two `cogmap run --config default.cfg` runs on the shipped data.

    Both runs use identical relative paths from separate working directories,
    so every recorded configuration value is identical and the artifact trees
    are directly comparable.
    """
    old_cwd = os.getcwd()
    result = {"workspaces": [], "manifests": []}
    try:
        for name in ("first", "second"):
            ws = tmp_path_factory.mktemp(name)
            (ws / "data").mkdir()
            shutil.copy(REPO / "data" / "embeddings_300d.txt", ws / "data")
            shutil.copy(REPO / "data" / "lexicon.csv", ws / "data")
            shutil.copy(REPO / "default.cfg", ws / "default.cfg")
            os.chdir(ws)
            started = time.perf_counter()
            assert main(["run", "--config", "default.cfg"]) == 0
            elapsed = time.perf_counter() - started
            result["workspaces"].append(ws)
            result["manifests"].append(
                json.loads((ws / "out" / "manifest.json").read_text(encoding="utf-8")))
            if name == "first":
                result["elapsed"] = elapsed
        yield result
    finally:
        os.chdir(old_cwd)


def runs_by_gamma(manifest):
    return {f"{run['gamma']}": run for run in manifest["runs"]}


def test_criterion_1_scale_contrast(pipeline_runs, criterion_log):
    runs = runs_by_gamma(pipeline_runs["manifests"][0])
    broad = runs["1.0"]["gdv_prediction_space"]["all"]
    local = runs["0.3"]["gdv_prediction_space"]["all"]
    elapsed = pipeline_runs["elapsed"]
    passed = (broad < local) and (broad <= -0.30) and (elapsed < 120.0)
    offsets = {tag: abs(runs[tag]["gdv_prediction_space"]["all"] - REFERENCE_ALL_GDV[tag])
               for tag in ("1.0", "0.3")}
    record(criterion_log, 1, "scale contrast", passed,
           f"gdv(gamma=1.0, all)={broad:.4f} <= -0.30 and < "
           f"gdv(gamma=0.3, all)={local:.4f}; runtime {elapsed:.1f}s < 120s; "
           f"distance from reference values -0.44/-0.38: "
           f"{offsets['1.0']:.3f}/{offsets['0.3']:.3f} "
           f"vs +-0.15 target (reported, not asserted)")


def test_criterion_2_per_split_ordering(pipeline_runs, criterion_log):
    runs = runs_by_gamma(pipeline_runs["manifests"][0])
    broad = runs["1.0"]["gdv_prediction_space"]
    local = runs["0.3"]["gdv_prediction_space"]
    most_negative = min(broad.values())
    passed = (broad["train"] <= -0.25 and broad["validation"] <= -0.25
              and broad["all"] - most_negative <= 0.05
              and all(local[k] > broad[k] for k in ("all", "train", "validation")))
    record(criterion_log, 2, "per-split ordering", passed,
           f"gamma=1.0 all/train/validation = {broad['all']:.4f}/{broad['train']:.4f}/"
           f"{broad['validation']:.4f} (train,validation <= -0.25; all within 0.05 of "
           f"most negative); gamma=0.3 = {local['all']:.4f}/{local['train']:.4f}/"
           f"{local['validation']:.4f} all strictly less negative")


def test_criterion_3_gdv_fixture_and_brute_force(criterion_log):
    # the fixture holds two 1-D pairs {0,1} and {10,11}: sigma = sqrt(25.25),
    # intra = .5/sigma, inter = 5/sigma, GDV = -4.5/sigma
    fixture = load_labeled_points_csv(REPO / "data" / "gdv_fixture_1d.csv")
    report = gdv(fixture)
    values = [report["gdv"], *report["mean_intra_per_class"], *report["mean_inter_per_pair"]]
    hand = [-0.8955334711889903, 0.09950371902099892, 0.09950371902099892, 0.9950371902099892]
    fixture_err = max(abs(a - b) for a, b in zip(values, hand))
    layout_ok = (fixture.lex.words == ["a0", "a1", "b0", "b1"] and len(values) == len(hand)
                 and report["dimension"] == 1 and report["classes"] == ["A", "B"]
                 and report["class_pairs"] == [("A", "B")])

    rng = np.random.default_rng(321)
    max_err = 0.0
    for _ in range(50):
        n_classes = int(rng.integers(2, 5))
        d = int(rng.integers(1, 6))
        labels, rows = [], []
        for c in range(n_classes):
            count = int(rng.integers(2, 9))  # N <= 8 per class
            labels += [f"c{c}"] * count
            rows.append(rng.standard_normal((count, d)) + 2.0 * rng.standard_normal(d))
        points = np.vstack(rows)
        value = gdv(labeled(points, labels))["gdv"]
        max_err = max(max_err, abs(value - gdv_reference(points, labels)))
    passed = layout_ok and fixture_err <= 1e-12 and max_err <= 1e-12
    record(criterion_log, 3, "GDV hand fixture + brute force", passed,
           f"data/gdv_fixture_1d.csv: gdv={report['gdv']:.6f}, max |gdv, intra, inter - hand "
           f"value| = {fixture_err:.2e} <= 1e-12, words/dimension/classes/pairs as written: "
           f"{layout_ok}; max |gdv - oracle| over 50 random sets = {max_err:.2e} <= 1e-12")


def test_criterion_4_gdv_invariances(criterion_log):
    worst = dict.fromkeys(["affine", "dim-permutation", "dim-scaling", "row-order", "relabel"],
                          0.0)
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n_classes = int(rng.integers(2, 5))
        d = int(rng.integers(2, 6))
        labels, rows = [], []
        for c in range(n_classes):
            count = int(rng.integers(2, 7))
            labels += [f"c{c}"] * count
            rows.append(rng.standard_normal((count, d)) + 2.0 * rng.standard_normal(d))
        points = np.vstack(rows)
        base = gdv(labeled(points, labels))["gdv"]

        scale = float(rng.uniform(0.1, 10.0))
        shift = float(rng.uniform(-5.0, 5.0))
        perm = rng.permutation(d)
        dim_scales = rng.uniform(0.1, 10.0, d)  # z-scoring absorbs anisotropic scaling
        order = rng.permutation(len(points))
        variants = {"affine": (scale * points + shift, labels),
                    "dim-permutation": (points[:, perm], labels),
                    "dim-scaling": (points * dim_scales, labels),
                    "row-order": (points[order], [labels[i] for i in order]),
                    "relabel": (points, [f"class-{l}" for l in labels])}
        for name, (moved, moved_labels) in variants.items():
            worst[name] = max(worst[name], abs(gdv(labeled(moved, moved_labels))["gdv"] - base))
    passed = all(v < 1e-9 for v in worst.values()) and worst["relabel"] == 0.0
    record(criterion_log, 4, "GDV invariances", passed,
           "max |delta gdv| over 20 seeded sets: "
           + ", ".join(f"{name} {value:.2e}" for name, value in worst.items())
           + " (all < 1e-9, relabel exactly 0)")


def test_criterion_5_sr_oracle(criterion_log):
    rng = np.random.default_rng(777)
    batches, batch_size = 20, 5000  # 1e5 samples total
    max_z = 0.0
    identity_exact = True
    for chain in range(10):
        n = int(rng.integers(2, 6))  # N <= 5
        horizon = int(rng.integers(0, 7))  # H <= 6
        raw = rng.random((n, n)) + 1e-3
        t = TransitionMatrix(values=raw / raw.sum(axis=1, keepdims=True),
                             state_words=[f"s{i}" for i in range(n)])
        start = int(rng.integers(0, n))
        for gamma in (0.0, 0.3, 0.7, 1.0):
            closed = successor_matrix(t, gamma, horizon).values
            if gamma == 0.0:
                occ = rollout_occupancy_oracle(t, gamma, horizon, start,
                                               batch_size, seed=chain)
                identity_exact &= np.array_equal(occ, np.eye(n)[start])
                identity_exact &= np.array_equal(closed, np.eye(n))
                continue
            estimates = np.stack([
                rollout_occupancy_oracle(t, gamma, horizon, start, batch_size,
                                         seed=100000 * chain + 100 * b + int(10 * gamma))
                for b in range(batches)])
            mean = estimates.mean(axis=0)
            se = estimates.std(axis=0, ddof=1) / np.sqrt(batches)
            diff = np.abs(mean - closed[start])
            # zero-SE components are deterministic and must agree outright
            z = np.where(se > 0.0, diff / np.where(se > 0.0, se, 1.0),
                         np.where(diff <= 1e-12, 0.0, np.inf))
            max_z = max(max_z, float(z.max()))
    passed = identity_exact and max_z <= 3.0
    record(criterion_log, 5, "SR Monte Carlo oracle", passed,
           f"10 random chains x gammas {{0,0.3,0.7,1.0}}, 1e5 samples each: "
           f"max |closed-form - MC| = {max_z:.2f} standard errors (<= 3); "
           f"gamma=0 SR is the identity matrix exactly: {identity_exact}")


def test_criterion_6_gradient_check(criterion_log):
    rng = np.random.default_rng(99)
    worst = 0.0
    for i in range(20):
        cfg = MlpConfig(input_dim=int(rng.integers(2, 7)),
                        output_dim=int(rng.integers(2, 6)),
                        dropout_rate=0.0, learning_rate=0.01, epochs=1,
                        seed=int(rng.integers(0, 10000)))
        x = rng.standard_normal(cfg.input_dim)
        target = rng.random(cfg.output_dim) + 1e-3
        target /= target.sum()
        worst = max(worst, gradient_check(cfg, (x, target)))
    passed = worst < 1e-4
    record(criterion_log, 6, "gradient correctness", passed,
           f"max relative error of analytic vs central-difference gradients over "
           f"20 random configurations = {worst:.2e} < 1e-4")


def test_criterion_7_mds_recovery(criterion_log):
    worst_stress, worst_dist, shapes_ok = 0.0, 0.0, True
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        points = rng.standard_normal((10, 2)) * rng.uniform(0.5, 5.0)
        coords, stress = mds(points)
        shapes_ok &= coords.shape == (10, 2)
        iu = np.triu_indices(10, k=1)
        recovered = pairwise_euclidean(coords)[iu]
        given = pairwise_euclidean(points)[iu]
        worst_dist = max(worst_dist, float(np.max(np.abs(recovered - given))))
        worst_stress = max(worst_stress, stress)
    passed = shapes_ok and worst_dist <= 1e-8 and worst_stress < 1e-9
    record(criterion_log, 7, "MDS planar recovery", passed,
           f"20 exact-2-D configurations (n=10): maps of shape (10, 2): {shapes_ok}; max "
           f"pairwise-distance error {worst_dist:.2e} <= 1e-8, max stress "
           f"{worst_stress:.2e} < 1e-9")


def test_criterion_8_progress_and_determinism(pipeline_runs, criterion_log):
    manifest_a, manifest_b = pipeline_runs["manifests"]
    progress_ok = all(run["final_train_loss"] < run["first_epoch_loss"]
                      for run in manifest_a["runs"])

    out_a = pipeline_runs["workspaces"][0] / "out"
    out_b = pipeline_runs["workspaces"][1] / "out"
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    identical, compared = True, 0
    for name in names_a:
        a_path, b_path = out_a / name, out_b / name
        if name == "manifest.json":
            doc_a = json.loads(a_path.read_text(encoding="utf-8"))
            doc_b = json.loads(b_path.read_text(encoding="utf-8"))
            doc_a["created_utc"] = doc_b["created_utc"] = "MASKED"
            # each manifest records its own workspace's input files, by absolute path
            for doc, ws in ((doc_a, out_a.parent), (doc_b, out_b.parent)):
                for key in INPUTS:
                    doc["config"][key] = os.path.relpath(doc["config"][key], os.path.realpath(ws))
            same = doc_a == doc_b and [doc_a["config"][key] for key in INPUTS] == \
                ["data/embeddings_300d.txt", "data/lexicon.csv"]
        else:
            same = a_path.read_bytes() == b_path.read_bytes()
        identical &= same
        compared += 1
    passed = progress_ok and identical and names_a == names_b and compared == 14
    losses = "; ".join(
        f"gamma={run['gamma']}: first {run['first_epoch_loss']:.4f} -> final "
        f"{run['final_train_loss']:.4f}" for run in manifest_a["runs"])
    record(criterion_log, 8, "training progress + determinism", passed,
           f"{losses}; `cogmap run` rerun with identical config+seed: {compared} artifacts, "
           f"byte-identical: {identical} (manifest timestamp masked, input paths taken "
           f"relative to each run's directory)")
