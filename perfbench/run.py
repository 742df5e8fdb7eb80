"""cogmap benchmark: runs the CLI the way users do, checks every output, reports metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one summary each

Each operation runs in fresh interpreters through cogmap's console entry point
(`from cogmap.cli import main`, with the checkout's `src` on PYTHONPATH), one
after another: a closed loop with a single client and nothing else running.
BLAS runs one thread in the benchmark and in every process it starts (the
count is recorded): on a shared 2-vCPU box a second OpenBLAS thread spin-waits
on the small matmuls of training, and wall time then follows the neighbours'
load rather than the program. Output bytes do not depend on the thread count.

Workloads (the seed drives the vocabulary generator; `paper` uses the shipped
files, so its inputs do not depend on it):
    paper   `cogmap run --config default.cfg`: 60 training / 30 validation words,
            gammas 1.0,0.3, 500 epochs. Time splits between training and MDS.
    staged  the README's piecewise chain on a generated 240 / 60-word,
            6-category vocabulary: `build-sr` (gammas 1.0,0.3), then `train`
            (20 epochs) -> `predict` -> `gdv` per gamma; seven processes that
            re-read what they wrote. No projection.
    wide    (run by hand; not in BENCHMARK.json) one `cogmap run` on its own
            240 / 60-word vocabulary, one gamma (1.0), 20 epochs. MDS, the GDV
            tensor and file I/O dominate. An operation takes 20-35 s, so a run
            short enough for the benchmark's time budget holds two and its
            median is too noisy to gate on; use --seconds 120 or more.

A run keeps starting operations until `--seconds` would be exceeded, and does
at least two, so every run also checks that a rerun is byte-identical. With
`--trace 0` it reports the end-to-end metrics, as medians over its operations:
setup_s (a fresh interpreter importing cogmap.cli), run_s (one operation's wall
time), cpu_s (user + system time of its processes, from wait4) and peak_rss_mb
(the largest ru_maxrss among them). error_rate is failed / attempted
operations (the result's `failed` and `attempted`); an operation fails if a
process exits non-zero or times out, or if an output check in `checker.py`
fails, including the rerun comparison with the run's first operation.

With `--trace 1` untraced and traced operations alternate (at least one pair);
a traced operation runs every step in one process under `tracer.py`, and the
run reports the per-layer metrics (medians over traced operations) plus
trace.overhead_s, the traced minus the untraced run_s. On `staged` it is
negative: the traced chain runs in one interpreter and skips six interpreter
start-ups.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A full record (environment, every sample, every failure)
goes to `.perfbench_work/results/`.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set before numpy loads, here and in the children, which inherit os.environ
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import numpy  # noqa: E402

import checker  # noqa: E402
import tracer  # noqa: E402
import vocab  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
ENTRY = "import sys; from cogmap.cli import main; sys.exit(main())"
SETUP_SAMPLES_PER_CYCLE = 2
# a run must end within 180 s, so no operation starts that could overrun this
HARD_LIMIT_S = 165.0

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "neural.train_s": "s", "neural.sgd_steps": "count", "neural.step_us": "us",
    "neural.train_gflop": "GFLOP", "neural.train_gflops": "GFLOP/s", "neural.predict_s": "s",
    "neural.save_model_s": "s", "neural.load_model_s": "s",
    "projection.mds_s": "s", "projection.distance_s": "s", "projection.points": "count",
    "metrics.gdv_s": "s", "metrics.gdv_calls": "count", "metrics.gdv_tensor_mb": "MB",
    "fileio.write_s": "s", "fileio.read_s": "s", "fileio.bytes_written": "bytes",
    "fileio.bytes_read": "bytes", "fileio.files_written": "count",
    "dataset.load_s": "s", "dataset.loads": "count", "dataset.bytes_parsed": "bytes",
    "dataset.examples_s": "s",
    "sr.transition_s": "s", "sr.successor_s": "s", "sr.matmul_gflop": "GFLOP",
    "svg.render_s": "s", "cli.processes": "count", "cli.self_s": "s", "pipeline.self_s": "s",
    "trace.run_s": "s", "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Workload:
    """How a workload's inputs are made and run; BENCHMARK.json says why each exists."""

    vocabulary: tuple  # (train words, validation words, categories); empty for shipped data
    overrides: tuple  # config keys replaced in default.cfg
    chain: bool  # piecewise CLI chain instead of one `cogmap run`
    salt: int  # keeps the generated vocabularies of different workloads apart


WORKLOADS = {
    "paper": Workload((), (), False, 0),
    "wide": Workload((240, 60, 6), (("gammas", "1.0"), ("epochs", "20")), False, 1),
    "staged": Workload((240, 60, 6), (("gammas", "1.0,0.3"), ("epochs", "20")), True, 2),
}
MANUAL_WORKLOADS = {"wide"}  # in WORKLOADS but not in BENCHMARK.json; see the module docstring


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    error: str = ""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(argv, log, timeout):
    """Run one process to completion; returns (wait4 rusage, exit code, timed out)."""
    timeout = max(timeout, 1.0)
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(timeout, os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    start = time.perf_counter()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage, proc.returncode, time.perf_counter() - start >= timeout


def run_processes(argvs, log, deadline):
    """One operation: its processes in sequence, stopping at the first failure."""
    sample = Sample(0.0, 0.0, 0.0)
    start = time.perf_counter()
    for i, argv in enumerate(argvs):
        usage, code, timed_out = spawn(argv, log, deadline - time.perf_counter())
        sample.cpu += usage.ru_utime + usage.ru_stime
        sample.rss_mb = max(sample.rss_mb, usage.ru_maxrss / 1024)
        if code != 0:
            status = "timed out" if timed_out else f"exited {code}"
            sample.error = f"process {i + 1} of {len(argvs)} {status}; see processes.log"
            break
    sample.wall = time.perf_counter() - start
    return sample


def cli_steps(workload, config, out):
    """argv lists (after `cogmap`) of one operation, with paths relative to the checkout."""
    if not workload.chain:
        return [["run", "--config", config, "--out-dir", out]]
    gammas = checker.read_config(ROOT / config)["gammas"].split(",")
    steps = [["build-sr", "--config", config, "--out-dir", out]]
    for tag in (checker.gamma_tag(g) for g in gammas):
        model, predictions = f"{out}/model_gamma_{tag}.json", f"{out}/predictions_gamma_{tag}.csv"
        steps += [["train", "--config", config, "--sr", f"{out}/sr_gamma_{tag}.json", "--out", model],
                  ["predict", "--config", config, "--model", model, "--split", "all",
                   "--out", predictions],
                  ["gdv", "--points", predictions, "--out", f"{out}/gdv_gamma_{tag}.json"]]
    return steps


def prepare_config(workload, seed, work):
    """Generate the workload's inputs; returns its config path relative to the checkout."""
    if not workload.vocabulary:
        return "default.cfg"
    n_train, n_validation, n_categories = workload.vocabulary
    embeddings, lexicon = vocab.write_vocabulary(work / "vocab", n_train, n_validation,
                                                 n_categories, [seed, workload.salt])
    values = checker.read_config(ROOT / "default.cfg")
    values.update(workload.overrides)
    values["embeddings"] = str(embeddings.relative_to(ROOT))
    values["lexicon"] = str(lexicon.relative_to(ROOT))
    config = work / "bench.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return str(config.relative_to(ROOT))


def blas_threads():
    for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        cdll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(cdll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(config):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = out.stdout.strip() or None
    return {
        "git_commit": commit,
        "config_sha256": hashlib.sha256((ROOT / config).read_bytes()).hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
        "thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


def tail_percentile(values):
    """(p, value) for the highest percentile with at least ten samples beyond it, or None."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


class BenchRun:
    """State of one benchmark run: its inputs, samples and failures."""

    def __init__(self, name, seed, work, log):
        self.workload = WORKLOADS[name]
        self.work = work
        self.config = prepare_config(self.workload, seed, self.work)
        self.inputs = checker.Inputs(ROOT / self.config, ROOT)
        self.out, self.reference = self.work / "out", self.work / "reference"
        self.steps = cli_steps(self.workload, self.config, str(self.out.relative_to(ROOT)))
        self.log = log
        self.setup, self.untraced, self.traced = [], [], []
        self.layers, self.self_times, self.failures = [], [], []

    def measure_setup(self, count):
        samples = []
        for _ in range(count):
            start = time.perf_counter()
            _, code, _ = spawn([sys.executable, "-c", "import cogmap.cli"], self.log, 60.0)
            if code != 0:
                raise BenchError(f"`import cogmap.cli` exited {code}; see {self.log.name}")
            samples.append(time.perf_counter() - start)
        return samples

    def operation(self, with_trace, deadline):
        """Run, check and record one operation."""
        op = len(self.untraced) + len(self.traced)
        shutil.rmtree(self.out, ignore_errors=True)
        if with_trace:
            spec, spans = self.work / "steps.json", self.work / "spans.json"
            spec.write_text(json.dumps({"op": op, "steps": self.steps}), encoding="utf-8")
            argvs = [[sys.executable, str(HERE / "tracer.py"), str(spec), str(spans)]]
        else:
            argvs = [[sys.executable, "-c", ENTRY, *argv] for argv in self.steps]
        sample = run_processes(argvs, self.log, deadline)
        (self.traced if with_trace else self.untraced).append(sample)
        if sample.error:
            errors = [sample.error]
        else:
            check = checker.check_chain_tree if self.workload.chain else checker.check_run_tree
            try:
                errors = check(self.out, self.inputs)
                if self.reference.exists():
                    errors += checker.compare_trees(self.reference, self.out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors = [f"output check raised {type(exc).__name__}: {exc}"]
            if with_trace:
                metrics, own = tracer.layer_metrics(json.loads(spans.read_text())["spans"])
                self.layers.append(dict(metrics, **{"trace.run_s": sample.wall}))
                self.self_times.append(own)
        if errors:
            sample.error = "; ".join(errors)
            self.failures.append({"op": op, "traced": with_trace, "errors": errors})
        elif not self.reference.exists():
            self.out.rename(self.reference)


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns the full record, also written to WORK/results."""
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    work = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    with open(work / "processes.log", "wb") as log:
        bench = BenchRun(name, seed, work, log)
        bench.measure_setup(1)  # the first import also fills the bytecode and page caches
        loop_start = time.perf_counter()
        cycles = 0
        while True:
            # setup samples spread over the run, so one slow moment does not set the median
            bench.setup += bench.measure_setup(SETUP_SAMPLES_PER_CYCLE)
            for with_trace in (False, True) if trace else (False,):
                bench.operation(with_trace, deadline)
            cycles += 1
            elapsed = time.perf_counter() - loop_start
            cycle = elapsed / cycles
            enough = cycles >= (1 if trace else 2) and elapsed + cycle > seconds
            if enough or time.perf_counter() + cycle > deadline:
                break

    samples = bench.untraced + bench.traced
    ok = [s for s in bench.untraced if not s.error] or bench.untraced
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(bench.config),
        "setup_s": bench.setup, "operations": [vars(s) for s in bench.untraced],
        "traced_operations": [vars(s) for s in bench.traced], "layer_samples": bench.layers,
        "failures": bench.failures, "attempted": len(samples),
        "failed": sum(1 for s in samples if s.error),
    }
    manifest = bench.reference / "manifest.json"
    if manifest.exists():
        record["environment"]["manifest_config_hash"] = json.loads(manifest.read_text())["config_hash"]
    if trace:
        medians = {k: statistics.median(m[k] for m in bench.layers) if bench.layers else 0.0
                   for k in PER_LAYER if k != "trace.overhead_s"}
        medians["trace.overhead_s"] = medians["trace.run_s"] - statistics.median(s.wall for s in ok)
        record["metrics"] = {k: (medians[k], PER_LAYER[k]) for k in PER_LAYER}
        names = bench.self_times[0] if bench.self_times else {}
        record["self_s"] = {k: statistics.median(t.get(k, 0.0) for t in bench.self_times)
                            for k in names}
    else:
        series = {"setup_s": bench.setup, "run_s": [s.wall for s in ok],
                  "cpu_s": [s.cpu for s in ok], "peak_rss_mb": [s.rss_mb for s in ok]}
        record["series"] = series
        record["metrics"] = {k: (statistics.median(v), END_TO_END[k]) for k, v in series.items()}
    for leftover in (bench.out, bench.reference, work / "vocab"):
        shutil.rmtree(leftover, ignore_errors=True)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def profile_notes(record):
    """Whether the traced run shows the workload's intended profile on the seed program."""
    m = {k: v for k, (v, _) in record["metrics"].items()}
    own = record.get("self_s", {})
    largest = max(own, key=own.get) if own else None
    if record["workload"] == "wide":
        claims = [(f"largest self time is classical_mds (got {largest})", largest == "classical_mds"),
                  ("neural.train_s < 5% of the run", m["neural.train_s"] < 0.05 * m["trace.run_s"])]
    elif record["workload"] == "paper":
        claims = [("neural.train_s + projection.mds_s >= 80% of the run",
                   m["neural.train_s"] + m["projection.mds_s"] >= 0.8 * m["trace.run_s"])]
    else:
        claims = [("no projection spans", m["projection.points"] == 0),
                  (f"dataset.loads = 5 (got {m['dataset.loads']})", m["dataset.loads"] == 5),
                  (f"cli.processes = 7 (got {m['cli.processes']})", m["cli.processes"] == 7)]
    return [f"profile {record['workload']}: {text}: {'holds' if ok else 'DOES NOT HOLD'}"
            for text, ok in claims]


def report(record):
    """Human-readable lines for one run."""
    n_ops = record["attempted"]
    lines = [f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
             f"{n_ops} operations, {record['failed']} failed"]
    series = record.get("series", {})
    for name, (value, unit) in record["metrics"].items():
        values = series.get(name, [])
        tail = tail_percentile(values) if values else None
        tail_text = f"p{tail[0]} {tail[1]:.6g}" if tail else "no tail percentile (< 10 beyond)"
        n = f"n={len(values)}" if values else f"n={len(record['layer_samples'])}"
        lines.append(f"  {name:<24} median {value:<14.6g} {unit:<8} {n:<6} {tail_text}")
    lines.append(f"  {'error_rate':<24} {record['failed'] / max(n_ops, 1):<21.6g} ratio    "
                 f"n={n_ops}")
    for failure in record["failures"]:
        lines.append(f"  FAILED op {failure['op']}: {'; '.join(failure['errors'])[:500]}")
    if record["trace"]:
        lines += ["  " + note for note in profile_notes(record)]
    lines.append("  environment " + json.dumps(record["environment"], sort_keys=True))
    return lines


def result_line(records, prefix):
    metrics = {}
    for record in records:
        for name, (value, unit) in record["metrics"].items():
            metrics[f"{record['workload']}.{name}" if prefix else name] = {"value": value,
                                                                           "unit": unit}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="measure for this long (at least two operations; one pair traced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/cogmap/cli.py", "default.cfg") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print("\n".join(report(record)))
    print(result_line(records, prefix=args.workload == "all"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
