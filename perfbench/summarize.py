"""Collect the result files in perfbench/out/ into one summary file.

    python3 perfbench/summarize.py perfbench/baseline.json

For every workload it gives each end-to-end metric's median, quartiles
and the spread (quartile distance over median) across the untraced runs,
with the seeds used, and the per-layer metrics of the traced runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT_DIR = Path("perfbench") / "out"


def summary(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"])
    return out


def main(target: str) -> None:
    untraced: dict[str, dict] = {}
    traced: dict[str, dict] = {}
    environment = None
    for path in sorted(OUT_DIR.glob("*-seed*-trace*.json")):
        result = json.loads(path.read_text())
        environment = environment or {k: v for k, v in result["environment"].items()
                                      if k != "seed"}
        workload, rest = path.stem.split("-seed")
        seed, trace = rest.split("-trace")
        if trace == "0":
            entry = untraced.setdefault(workload, {"seeds": [], "metrics": {}})
            entry["seeds"].append(int(seed))
            for name, metric in result["metrics"].items():
                entry["metrics"].setdefault(name, []).append(metric["value"])
        else:
            for name, metric in result["metrics"].items():
                traced.setdefault(name, []).append(metric["value"])
    doc = {
        "environment": environment,
        "end_to_end": {
            w: {"seeds": e["seeds"], **{m: summary(v) for m, v in e["metrics"].items()}}
            for w, e in untraced.items()
        },
        "per_layer": {m: summary(v) for m, v in traced.items()},
    }
    Path(target).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
