"""Traced operation: runs cogmap CLI steps in one process with a span around every layer call.

    python3 perfbench/tracer.py STEPS_JSON SPANS_JSON

STEPS_JSON is `{"op": <id>, "steps": [[argv...], ...]}`; each argv goes to
`cogmap.cli.main` in turn. The spans are kept in memory and written to
SPANS_JSON at the end. The exit code is 1 if any step returned non-zero.

Spans come from outside the program: the public functions that `cli` and
`pipeline` call are replaced, in every cogmap module that imported them, by
wrappers that record name, layer, start, end, parent span, operation id and,
for file and size arguments, the bytes and shapes involved. `layer_metrics`
turns one operation's spans into the per-layer metrics.
"""

import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from functools import wraps

# keys are the cogmap modules that define the wrapped functions
LAYERS = {
    "cli": ("main",),
    "pipeline": ("run_pipeline",),
    "dataset": ("load_embeddings", "load_lexicon", "build_examples"),
    "sr": ("build_transition_matrix", "successor_matrix", "save_sr_json", "load_sr_json"),
    "neural": ("train", "predict_all", "save_model", "load_model"),
    "projection": ("pairwise_euclidean", "classical_mds"),
    "metrics": ("gdv",),
    "svg": ("render_svg",),
    # JSON helpers are wrapped where `neural` and `sr` call them, so model and
    # SR envelope reads and writes count as file I/O
    "fileio": ("save_matrix_csv", "save_labeled_points_csv", "dump_json",
               "load_labeled_points_csv", "load_json"),
}
LAYER_OF = {name: layer for layer, names in LAYERS.items() for name in names}
WRITERS = ("save_matrix_csv", "save_labeled_points_csv", "dump_json")
READERS = ("load_labeled_points_csv", "load_json")
PATH_PARAM = {"render_svg": "out_path"}


def _shape_info(name, arguments):
    """Sizes that the computed counts need, read from a call's arguments."""
    if name == "train":
        cfg, n = arguments["config"], len(arguments["examples"])
        return {"examples": n, "epochs": cfg.epochs, "batch_size": cfg.batch_size,
                "input_dim": cfg.input_dim, "hidden_dim": cfg.hidden_dim,
                "output_dim": cfg.output_dim}
    if name == "successor_matrix":
        return {"n": arguments["t"].n, "gamma": float(arguments["gamma"]),
                "horizon": int(arguments["horizon"])}
    if name == "gdv":
        n, dim = arguments["pointset"].points.shape
        return {"n": n, "dim": dim}
    if name == "pairwise_euclidean":
        return {"n": len(arguments["points"])}
    return {}


class Tracer:
    """Collects spans for one operation; `install` wraps the cogmap functions."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self.stack = []

    def wrap(self, fn):
        name = fn.__name__
        signature = inspect.signature(fn)
        path_param = PATH_PARAM.get(name, "path")

        @wraps(fn)
        def traced(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments
            span = {"name": name, "layer": LAYER_OF[name], "op": self.op_id,
                    "parent": self.stack[-1] if self.stack else None}
            span.update(_shape_info(name, arguments))
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
                path = arguments.get(path_param)
                if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
                    span["bytes"] = os.path.getsize(path)
        return traced

    def install(self):
        modules = {layer: importlib.import_module(f"cogmap.{layer}") for layer in LAYERS}
        originals = {name: getattr(modules[layer], name) for name, layer in LAYER_OF.items()}
        wrapped = {name: self.wrap(fn) for name, fn in originals.items()}
        for module in modules.values():
            for name, fn in originals.items():
                if getattr(module, name, None) is fn:
                    setattr(module, name, wrapped[name])


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans):
    """Per-layer metrics of one traced operation (times in s, sizes as labelled)."""
    total = defaultdict(float)
    calls = defaultdict(int)
    nbytes = defaultdict(int)
    own = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        total[span["name"]] += span["end"] - span["start"]
        calls[span["name"]] += 1
        nbytes[span["name"]] += span.get("bytes", 0)
        own[span["name"]] += self_s
    trains = [s for s in spans if s["name"] == "train"]
    steps = sum(s["epochs"] * math.ceil(s["examples"] / s["batch_size"]) for s in trains)
    # per example and epoch: forward 2DH + 2HS, backward 2HS + 2HS + 2HD
    train_flop = sum(s["epochs"] * s["examples"] * (4 * s["input_dim"] * s["hidden_dim"]
                                                   + 6 * s["hidden_dim"] * s["output_dim"])
                     for s in trains)
    gdvs = [s for s in spans if s["name"] == "gdv"]
    return {
        "neural.train_s": total["train"],
        "neural.sgd_steps": steps,
        "neural.step_us": 1e6 * total["train"] / steps if steps else 0.0,
        "neural.train_gflop": train_flop / 1e9,
        "neural.train_gflops": train_flop / 1e9 / total["train"] if total["train"] else 0.0,
        "neural.predict_s": total["predict_all"],
        "neural.save_model_s": total["save_model"],
        "neural.load_model_s": total["load_model"],
        "projection.mds_s": total["classical_mds"],
        "projection.distance_s": total["pairwise_euclidean"],
        "projection.points": sum(s["n"] for s in spans if s["name"] == "pairwise_euclidean"),
        "metrics.gdv_s": total["gdv"],
        "metrics.gdv_calls": calls["gdv"],
        "metrics.gdv_tensor_mb": max((s["n"] ** 2 * s["dim"] * 8 / 2**20 for s in gdvs), default=0.0),
        "fileio.write_s": sum(total[n] for n in WRITERS),
        "fileio.read_s": sum(total[n] for n in READERS),
        "fileio.bytes_written": sum(nbytes[n] for n in WRITERS),
        "fileio.bytes_read": sum(nbytes[n] for n in READERS),
        "fileio.files_written": sum(calls[n] for n in WRITERS),
        "dataset.load_s": total["load_embeddings"] + total["load_lexicon"],
        "dataset.loads": calls["load_embeddings"],
        "dataset.bytes_parsed": nbytes["load_embeddings"] + nbytes["load_lexicon"],
        "dataset.examples_s": total["build_examples"],
        "sr.transition_s": total["build_transition_matrix"],
        "sr.successor_s": total["successor_matrix"],
        "sr.matmul_gflop": sum(2 * s["n"] ** 3 * s["horizon"] for s in spans
                               if s["name"] == "successor_matrix" and s["gamma"] > 0.0) / 1e9,
        "svg.render_s": total["render_svg"],
        "cli.processes": calls["main"],
        "cli.self_s": own["main"],
        "pipeline.self_s": own["run_pipeline"],
    }, dict(own)


def main():
    steps_path, spans_path = sys.argv[1], sys.argv[2]
    with open(steps_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer(spec["op"])
    tracer.install()
    import cogmap.cli
    codes = [cogmap.cli.main(argv) for argv in spec["steps"]]
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"codes": codes, "spans": tracer.spans}, fh)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
