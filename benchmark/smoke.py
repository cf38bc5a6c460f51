"""Self-test of the benchmark at minimal input sizes (about half a minute).

    python3 benchmark/smoke.py

For every workload in BENCHMARK.json it makes one untraced and one traced
run with ``--scale smoke``. It checks that the result line has exactly the
keys correct, attempted, failed and metrics, that the outputs passed their
checks and that every named metric is emitted with its unit. Traced
functions that went missing are printed as a note. It then checks that the benchmark refuses to run,
without printing a result, from a directory that holds only BENCHMARK.json
and the benchmark. Exits 0 when every check passes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace):
    done = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace),
                           "--scale", "smoke"], cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def check_run(workload, trace, expected, problems):
    code, lines, stderr = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if code != 0 or len(lines) < 2:
        problems.append(f"{where}: exit {code}, stderr {stderr[-500:]}")
        return
    result, details = json.loads(lines[-1]), json.loads(lines[-2])["details"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']} errors={details['errors'][:3]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(expected.items()))}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)) or not math.isfinite(metric["value"]):
            problems.append(f"{where}: {name} is not a finite number")
    if details["missing_spans"]:
        print(f"note {where}: traced functions missing {details['missing_spans']}, "
              f"metrics absent {details['absent_metrics']}")


def check_bare(problems):
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(bare, "default-run", 0)
        if code == 0 or any('"correct"' in line for line in lines):
            problems.append(f"bare directory: exit {code}, printed {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {trace: {m["name"]: m["unit"] for m in bench[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    problems = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            check_run(workload["name"], trace, units[trace], problems)
    check_bare(problems)
    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
