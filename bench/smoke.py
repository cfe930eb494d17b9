"""Quick smoke run of the benchmark itself.

    python3 bench/smoke.py

Runs the benchmark command from BENCHMARK.json on every workload, untraced and
traced, with seed SEED and a short measuring time of SECONDS. Each run must
exit 0 with its output checks passed, end with the JSON result line, and
print every metric that BENCHMARK.json declares for its mode, by name and with
its declared unit. Exits 1 if any run does not.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 2
SEED = 1


def _check(lines: list[str], declared: list[dict]) -> list[str]:
    problems = []
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(m["name"] for m in declared):
        problems.append(f"metric names differ from BENCHMARK.json: {sorted(metrics)}")
    for metric in declared:
        entry = metrics.get(metric["name"], {})
        if entry.get("unit") != metric["unit"] or not math.isfinite(entry.get("value", math.nan)):
            problems.append(f"{metric['name']}: {entry}")
        elif not any(line.split()[:1] == [metric["name"]]
                     and line.split()[-1] == metric["unit"] for line in lines[:-1]):
            problems.append(f"{metric['name']} not printed with its unit")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(SEED),
                   "--seconds", str(SECONDS), "--trace", str(trace)]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                 timeout=180)
            lines = run.stdout.strip().splitlines()
            sys.stdout.write(run.stdout)
            problems = [f"exit code {run.returncode}"] if run.returncode else []
            problems += _check(lines, spec[kind]) if lines else ["no output"]
            print(f"smoke {workload} trace {trace}:",
                  "ok" if not problems else "FAILED " + "; ".join(problems), flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
