"""Tests of the benchmark itself: generator, output checker, tracer and BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checker
import run
import tracer
import vocab

ROOT = Path(__file__).resolve().parent.parent
EPOCHS = "2"


def traced(tmp_path, steps):
    """Run CLI steps under the tracer in a fresh process; returns the spans."""
    spec, spans = tmp_path / "steps.json", tmp_path / "spans.json"
    spec.write_text(json.dumps({"op": 0, "steps": steps}))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spec), str(spans)],
                   cwd=ROOT, env=run.child_env(), check=True, capture_output=True)
    return json.loads(spans.read_text())["spans"]


@pytest.fixture(scope="module")
def paper_tree(tmp_path_factory):
    """One `cogmap run` on the shipped data (2 epochs), traced."""
    tmp = tmp_path_factory.mktemp("paper")
    spans = traced(tmp, [["run", "--config", "default.cfg", "--epochs", EPOCHS,
                          "--out-dir", str(tmp / "out")]])
    return tmp / "out", spans


@pytest.fixture(scope="module")
def chain_tree(tmp_path_factory):
    """The staged workload's piecewise chain on the shipped data (2 epochs), traced."""
    tmp = tmp_path_factory.mktemp("chain")
    steps = run.cli_steps(run.WORKLOADS["staged"], "default.cfg", str(tmp / "out"))
    for argv in steps:
        if argv[0] == "train":
            argv += ["--epochs", EPOCHS]
    return tmp / "out", traced(tmp, steps)


@pytest.fixture(scope="module")
def shipped_inputs():
    return checker.Inputs(ROOT / "default.cfg", ROOT)


def test_vocabulary_is_deterministic_per_seed(tmp_path):
    a = vocab.write_vocabulary(tmp_path / "a", 24, 12, 3, 7)
    b = vocab.write_vocabulary(tmp_path / "b", 24, 12, 3, 7)
    c = vocab.write_vocabulary(tmp_path / "c", 24, 12, 3, 8)
    assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
    assert a[0].read_bytes() != c[0].read_bytes()
    rows = a[1].read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows].count("train") == 24
    assert len({r.split(",")[1] for r in rows}) == 3
    assert a[0].read_text().splitlines()[0] == f"36 {vocab.DIM}"


def test_gdv_oracle_matches_hand_computed_fixture():
    _, labels, _, values = checker.read_points(ROOT / "data" / "gdv_fixture_1d.csv")
    # points 0, 1 | 10, 11: sigma = sqrt(25.25); mean intra 1, mean inter 10, both halved
    assert checker.gdv_oracle(values, labels) == pytest.approx(-4.5 / math.sqrt(25.25), abs=1e-12)


def test_checker_accepts_run_output(paper_tree, shipped_inputs):
    out, _ = paper_tree
    assert checker.check_run_tree(out, shipped_inputs) == []


def test_checker_accepts_chain_output(chain_tree, shipped_inputs):
    out, _ = chain_tree
    assert checker.check_chain_tree(out, shipped_inputs) == []


def corrupt_copy(out, tmp_path, name, edit):
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    path = copy / name
    path.write_text(edit(path.read_text()))
    return copy


def perturb_digit(text):
    """Add one to the fourth significant digit of one probability."""
    lines = text.splitlines(keepends=True)
    fields = lines[5].split(",")
    value = fields[7]
    i = next(i for i, ch in enumerate(value) if ch in "123456789") + 3
    while not value[i].isdigit():
        i += 1
    fields[7] = value[:i] + str((int(value[i]) + 1) % 10) + value[i + 1:]
    lines[5] = ",".join(fields)
    return "".join(lines)


def swap_rows(text):
    lines = text.splitlines(keepends=True)
    lines[0], lines[1] = lines[1], lines[0]
    return "".join(lines)


def test_checker_rejects_perturbed_prediction_digit(paper_tree, shipped_inputs, tmp_path):
    out, _ = paper_tree
    copy = corrupt_copy(out, tmp_path, "predictions_gamma_1.0.csv", perturb_digit)
    failures = checker.check_run_tree(copy, shipped_inputs)
    assert any("predictions_gamma_1.0.csv" in f for f in failures)
    assert checker.compare_trees(out, copy) == ["rerun: predictions_gamma_1.0.csv differs"]


def test_checker_rejects_swapped_sr_rows(chain_tree, shipped_inputs, tmp_path):
    out, _ = chain_tree
    copy = corrupt_copy(out, tmp_path, "sr_gamma_0.3.csv", swap_rows)
    failures = checker.check_chain_tree(copy, shipped_inputs)
    assert failures and all("sr_gamma_0.3.csv" in f for f in failures)


def test_rerun_comparison_masks_only_timestamps(paper_tree, tmp_path):
    out, _ = paper_tree
    copy = corrupt_copy(out, tmp_path, "manifest.json",
                        lambda t: t.replace('"created_utc": "', '"created_utc": "1999'))
    (copy / "map_gamma_1.0.svg").write_text(
        (copy / "map_gamma_1.0.svg").read_text().replace("<!-- generated ", "<!-- generated 1999"))
    assert checker.compare_trees(out, copy) == []
    (copy / "gdv_gamma_0.3.json").write_text((copy / "gdv_gamma_0.3.json").read_text() + " ")
    assert checker.compare_trees(out, copy) == ["rerun: gdv_gamma_0.3.json differs"]


def test_trace_of_run_has_projection_and_one_process(paper_tree):
    _, spans = paper_tree
    metrics, own = tracer.layer_metrics(spans)
    assert metrics["cli.processes"] == 1
    assert metrics["projection.points"] == 180  # 90 words, two gammas
    assert metrics["neural.sgd_steps"] == 2 * int(EPOCHS) * 3  # ceil(60 / 20) batches
    assert metrics["metrics.gdv_calls"] == 12  # 3 splits x (prediction + 2-D) x 2 gammas
    assert all(s["op"] == 0 and s["end"] >= s["start"] for s in spans)
    pipeline = next(s for s in spans if s["name"] == "run_pipeline")
    assert 0.0 <= own["run_pipeline"] < 0.1 * (pipeline["end"] - pipeline["start"])


def test_trace_of_chain_reads_back_what_it_wrote(chain_tree):
    out, spans = chain_tree
    metrics, _ = tracer.layer_metrics(spans)
    assert metrics["cli.processes"] == 7
    assert metrics["dataset.loads"] == 5
    assert metrics["projection.points"] == 0
    written = sum(os.path.getsize(p) for p in out.iterdir())
    assert metrics["fileio.bytes_written"] == written
    # train reads the SR envelopes, predict the models, gdv the prediction files
    read_back = [f"{kind}_gamma_{g}.{ext}" for g in ("1.0", "0.3")
                 for kind, ext in (("sr", "json"), ("model", "json"), ("predictions", "csv"))]
    assert metrics["fileio.bytes_read"] == sum(os.path.getsize(out / n) for n in read_back)


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == \
        [name for name in run.WORKLOADS if name not in run.MANUAL_WORKLOADS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    layer_names = set(tracer.layer_metrics([])[0]) | {"trace.run_s", "trace.overhead_s"}
    assert layer_names == set(run.PER_LAYER)


def test_overrunning_process_is_killed_and_reported(tmp_path):
    with open(tmp_path / "log", "wb") as log:
        sample = run.run_processes([[sys.executable, "-c", "import time; time.sleep(30)"]],
                                   log, deadline=time.perf_counter() + 1.0)
    assert sample.error == "process 1 of 1 timed out; see processes.log"
    assert sample.wall < 10.0
