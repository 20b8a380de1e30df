"""Tests of the benchmark itself.

    python3 bench/selftest.py [--workload tables|audit ...] [--seed N]

1. The metric names and units the benchmark prints match BENCHMARK.json
   (per-layer names from the traced runs, end-to-end from check 3's run).
2. Count stability: two traced runs on one seed give identical values for
   every counted per-layer metric (unit count, bytes or bits).  Later claims
   that rest on a count depend on this.
3. A corrupted golden digest fails the run: the tables workload at the
   golden seed, run in this process with ``run.GOLDEN_PATH`` pointing at a
   copy of golden.json with one digest altered, must return nonzero and
   report failed jobs.

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys

import run
from tracer import COUNT_UNITS

BENCHMARK = run.ROOT / "BENCHMARK.json"


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def bench(workload: str, seed: int, trace: int) -> tuple[int, dict | None]:
    argv = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True)
    return proc.returncode, last_json(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description="tests of the benchmark itself")
    parser.add_argument("--workload", action="append", choices=sorted(run.PASS_S))
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    problems = []

    for workload in args.workload or sorted(run.PASS_S):
        results = []
        for _ in range(2):
            code, result = bench(workload, args.seed, 1)
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{workload}: traced run failed (exit {code})")
                break
            results.append(result["metrics"])
        else:
            before = len(problems)
            declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
            printed = {name: m["unit"] for name, m in results[0].items()}
            if printed != declared:
                problems.append(f"{workload}: per-layer metrics differ from BENCHMARK.json")
            for name, metric in results[0].items():
                if metric["unit"] in COUNT_UNITS and metric["value"] != results[1][name]["value"]:
                    problems.append(f"{workload}: {name} changed between traced runs: "
                                    f"{metric['value']} then {results[1][name]['value']}")
            counted = sum(m["unit"] in COUNT_UNITS for m in results[0].values())
            verdict = "repeat" if len(problems) == before else "DIFFER"
            print(f"{workload}: {counted} counted metrics {verdict}", flush=True)

    golden = json.loads(run.GOLDEN_PATH.read_text(encoding="utf-8"))
    digest = golden["tables"][0]["IX"]
    golden["tables"][0]["IX"] = digest[::-1]
    run.OUT_DIR.mkdir(exist_ok=True)
    corrupt = run.OUT_DIR / "golden-corrupt.json"
    corrupt.write_text(json.dumps(golden), encoding="utf-8")
    run.GOLDEN_PATH = corrupt
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "tables", "--seed", str(run.GOLDEN_SEED),
                         "--seconds", "1", "--trace", "0"])
    result = last_json(stdout.getvalue())
    if code == 0 or result is None or result["failed"] < 1:
        problems.append(f"corrupted golden digest went unnoticed (exit {code})")
    else:
        print(f"corrupted golden digest: exit {code}, {result['failed']} failed job(s)")
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if {name: m["unit"] for name, m in result["metrics"].items()} != declared:
            problems.append("end-to-end metrics differ from BENCHMARK.json")

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
