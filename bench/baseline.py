"""Collect the results of benchmark runs into a baseline file.

    python3 bench/baseline.py --commit SHA [--out bench/baseline.json]

Reads every ``.bench_out/result_<workload>_seed<n>_trace<k>.json`` that
``run.py`` wrote and records, per workload, the median and quartiles of each
end-to-end metric over the untraced runs (with their seeds), the per-layer
metrics of the traced runs, the gate counts and the environment.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT = re.compile(r"result_(?P<workload>\w+)_seed(?P<seed>\d+)_trace(?P<trace>[01])\.json")


def _summary(values: list[float]) -> dict:
    entry = {"median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry.update(q1=q1, q3=q3, spread=(q3 - q1) / entry["median"]
                     if entry["median"] else None)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", required=True, help="commit the runs measured")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent / "baseline.json"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[tuple[str, int], list] = {}
    env = None
    for path in sorted((ROOT / ".bench_out").glob("result_*.json")):
        match = RESULT.fullmatch(path.name)
        if not match:
            continue
        report = json.loads(path.read_text(encoding="utf-8"))
        if not report["result"]["correct"]:
            raise SystemExit(f"{path.name}: run was not correct")
        env = report["env"]
        key = (match["workload"], int(match["trace"]))
        runs.setdefault(key, []).append((int(match["seed"]), report))
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = sorted(runs.get((workload, 0), []), key=lambda item: item[0])
        traced = sorted(runs.get((workload, 1), []), key=lambda item: item[0])
        entry = {"seeds": [seed for seed, _ in plain],
                 "traced_seeds": [seed for seed, _ in traced]}
        entry["end_to_end"] = {
            m["name"]: _summary([r["result"]["metrics"][m["name"]]["value"] for _, r in plain])
            for m in spec["end_to_end"]} if plain else {}
        entry["per_layer"] = {
            m["name"]: statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                         for _, r in traced)
            for m in spec["per_layer"]} if traced else {}
        entry["gates"] = [{"seed": seed, "rows": r["rows_attempted"],
                           "failed": r["rows_failed"],
                           "gate_fail_frac": r["rows_failed"] / r["rows_attempted"]}
                          for seed, r in plain]
        entry["inputs"] = {str(seed): r["summary"] for seed, r in plain}
        workloads[workload] = entry
    baseline = {"commit": args.commit, "run_seconds": spec["run_seconds"],
                "env": env, "workloads": workloads}
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
