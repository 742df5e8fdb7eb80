"""Medians and quartiles per workload and metric over the records of many benchmark runs.

    python3 perfbench/summarize.py [RESULTS_DIR] > summary.json

RESULTS_DIR defaults to `.perfbench_work/results`, where `run.py` writes one
record per run. Runs are grouped by workload and trace mode; each metric gets
the median, first and third quartile (`statistics.quantiles(n=4)`) and the
spread (q3 - q1) / median of its per-run values, plus the number of runs.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def summarize(records):
    groups = defaultdict(lambda: defaultdict(list))
    units = {}
    for record in records:
        key = f"{record['workload']}.trace{record['trace']}"
        for name, (value, unit) in record["metrics"].items():
            groups[key][name].append(value)
            units[name] = unit
    summary = {}
    for key, metrics in sorted(groups.items()):
        summary[key] = {}
        for name, values in metrics.items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            summary[key][name] = {"median": median, "q1": q1, "q3": q3, "unit": units[name],
                                  "spread": (q3 - q1) / median if median else 0.0,
                                  "runs": len(values)}
    return summary


def main():
    results = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(__file__).resolve().parent.parent / ".perfbench_work" / "results"
    records = [json.loads(p.read_text()) for p in sorted(results.glob("*.json"))]
    print(json.dumps(summarize(records), indent=1))


if __name__ == "__main__":
    main()
