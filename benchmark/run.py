"""freqmia benchmark: one workload run, checked, as one JSON result line.

    python3 benchmark/run.py --workload default-run --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the result holds every end-to-end metric named
in BENCHMARK.json; with ``--trace 1`` every per-layer metric, from a run
whose first half is untraced and second half traced. Lines before the last
one give the details: environment, source identity, output hashes, quality
figures, layer shares and any failed check. The same details go to
``.bench_results/``. ``--scale smoke`` shrinks every input for a quick
self-test (see smoke.py).

Layout of one run: set-up probes (fresh interpreters importing freqmia and
resolving the workload's config), a prep process that writes the inputs, and
a measuring process (worker.py) that repeats the workload's op. Every child
runs with one BLAS thread.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TIME_LIMIT = 165.0  # seconds for the whole run, which must end within 180
SETUP_PROBES = {"full": 7, "smoke": 1}
# end-to-end metrics a workload does not report; they read 1 there. On
# default-run the attack stages are under 15% of the wall and their rate,
# timed from output write times, spread 20% across seeds, so it goes to the
# details line only
NOT_REPORTED = {
    "default-run": ("attack_samples_per_s", "verify_points_per_s", "mc_fraction_min"),
    "large-n-staged": ("verify_points_per_s", "mc_fraction_min"),
    "proposition-sweep": ("attack_samples_per_s", "auc_raw_mean", "auc_filtered_mean"),
}
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "attack_samples_per_s": "samples/s", "eval_s": "s",
         "verify_points_per_s": "points/s", "auc_raw_mean": "1", "auc_filtered_mean": "1",
         "mc_fraction_min": "1", "ops_ok_share": "1"}


def child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # one BLAS thread: the matmuls are small, and on a 2-core box two
    # threads made an SGD step 2.6x slower and the timings noisier
    threads = str(min(1, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def source_identity():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            sha = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def child(args, env, deadline):
    """Run a worker phase; returns its parsed last stdout line or raises."""
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=max(1.0, deadline - time.time()))
    if done.returncode != 0:
        raise RuntimeError(f"worker {args[1]} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def setup_probes(code, env, count, deadline):
    """Wall of fresh interpreters that import freqmia and resolve the config."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", "import freqmia; " + code], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.time()))
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
    return samples


def tail(values):
    """Highest nearest-rank percentile with at least ten samples above it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    rank = len(ordered) - 10
    return {"percentile": round(100.0 * rank / len(ordered), 1), "value": ordered[rank - 1],
            "samples": len(ordered)}


def check(measured, trace):
    """Run-level checks, recorded on the op they fail: byte-identical repeats,
    exact counts that repeat across traced ops and match the closed forms."""
    ops, traced = measured["ops"], measured["traced"]
    everything = ops + traced
    problems = []
    if len(ops) < (1 if trace else 2) or len(traced) < (2 if trace else 0):
        problems.append(f"too few ops in the time limit: {len(ops)} untraced, {len(traced)} traced")
    reference = next((op["hashes"] for op in everything if op["hashes"]), None)
    for i, op in enumerate(everything):
        if op["hashes"] != reference:
            op["errors"].append(f"op {i} outputs are not byte-identical to the first op's")
    first = traced[0].get("layers") if traced else None
    for i, op in enumerate(traced):
        got = op.get("layers")
        if got is None:
            continue
        for name in layers.COUNTS:
            if first is not None and got[name] != first[name]:
                op["errors"].append(f"traced op {i}: {name} {got[name]} != {first[name]} in op 0")
        for name, expected in measured["closed_forms"].items():
            if not math.isclose(got[name], expected, rel_tol=1e-12):
                op["errors"].append(f"traced op {i}: {name} = {got[name]}, closed form {expected}")
    return problems


def end_to_end(name, measured, setup, attempted, failed):
    ops = [op for op in measured["ops"] if "hashes" in op and op.get("wall")]
    med = statistics.median
    values = {
        "wall_s": med(op["wall"] for op in ops) if ops else 0.0,
        "setup_s": med(setup),
        "peak_rss_mb": measured["peak_rss_mb"],
        "ops_ok_share": 1.0 - failed / attempted,
    }
    if ops and ops[0].get("attack_s"):
        values["attack_samples_per_s"] = med(op["scored"] / op["attack_s"] for op in ops)
    if ops and ops[0].get("eval_s"):
        values["eval_s"] = med(op["eval_s"] for op in ops)
    if ops and "point_s" in ops[0]:
        values["verify_points_per_s"] = med(op["units"] / op["wall"] for op in ops)
        values["mc_fraction_min"] = min(op["quality"]["mc_fraction_min"] for op in ops)
    if ops and "auc_raw_mean" in ops[0]["quality"]:
        values["auc_raw_mean"] = ops[0]["quality"]["auc_raw_mean"]
        values["auc_filtered_mean"] = ops[0]["quality"]["auc_filtered_mean"]
    for metric in NOT_REPORTED[name]:
        values[metric] = 1.0
    return {m: values.get(m, 0.0) for m in UNITS}


def per_layer(measured):
    traced = [op for op in measured["traced"] if "layers" in op]
    if not traced:
        return {name: 0.0 for name, _, _ in layers.PER_LAYER}
    values = {}
    for name, _, _ in layers.PER_LAYER:
        if name in layers.COUNTS:
            values[name] = traced[0]["layers"].get(name, 0.0)
        elif name in traced[0]["layers"]:
            values[name] = statistics.median(op["layers"][name] for op in traced)
    pooled = {}
    for op in traced:
        for key, samples in op["samples"].items():
            pooled.setdefault(key, []).extend(samples)
    for key, samples in pooled.items():
        values[f"{key}_p50"] = layers.percentile(samples, 50)
        values[f"{key}_p99"] = layers.percentile(samples, 99)
    untraced = [op["wall"] for op in measured["ops"] if op.get("wall")]
    values["trace.overhead_s"] = (statistics.median(op["wall"] for op in traced)
                                  - statistics.median(untraced)) if untraced else 0.0
    return {name: values.get(name, 0.0) for name, _, _ in layers.PER_LAYER}


def shares(measured):
    """Layer time as a share of a traced op's wall (median op)."""
    traced = [op for op in measured["traced"] if "layers" in op]
    if not traced:
        return {}
    op = sorted(traced, key=lambda o: o["wall"])[len(traced) // 2]
    got, wall = op["layers"], op["wall"]
    groups = {
        "datasets": got["datasets.generate_s"] + got["datasets.ingest_s"],
        "denoiser.train": got["denoiser.train_s"],
        "attacks": sum(got[f"attacks.{k}.s"] for k in layers.ATTACK_KINDS),
        "evaluation": got["evaluation.records_s"] + got["attacks.csv_read_s"] + got["evaluation.mc_s"],
        "experiment": got["experiment.write_s"] + got["experiment.self_s"],
    }
    out = {k: v / wall for k, v in groups.items() if wall}
    if got["evaluation.mc_points"]:
        out["mc_ms_per_point"] = got["evaluation.mc_s"] * 1e3 / got["evaluation.mc_points"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "freqmia" / "__init__.py").is_file():
        print(f"error: no freqmia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.time() + TIME_LIMIT
    env = child_env()
    results = ROOT / ".bench_results"
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    results.mkdir(exist_ok=True)
    workdir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir),
              "--scale", args.scale]
    errors = []
    setup, measured = [0.0], {"ops": [], "traced": [], "missing": [], "closed_forms": {},
                              "env": {}, "peak_rss_mb": 0.0}
    try:
        child(["--phase", "prep", *common], env, deadline)
        workload = WORKLOADS[args.workload](workdir, args.seed, args.scale)
        setup = setup_probes(workload.probe(), env, SETUP_PROBES[args.scale], deadline)
        measured = child(["--phase", "measure", *common, "--seconds", str(args.seconds),
                          "--trace", str(args.trace), "--deadline", str(deadline - 15.0),
                          "--spans", str(results / f"{args.workload}-seed{args.seed}.spans.tsv")],
                         env, deadline)
        errors += check(measured, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = measured["ops"] + measured["traced"]
    attempted = max(1, sum(op["units"] for op in everything))
    failed = sum(op["units"] for op in everything if op["errors"])
    if errors:
        failed = attempted
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for (name, unit, _), value
                   in zip(layers.PER_LAYER, per_layer(measured).values())}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value
                   in end_to_end(args.workload, measured, setup, attempted, failed).items()}
    ops = measured["ops"]
    quality = dict(ops[0]["quality"]) if ops else {}
    quality["ops_failed_share"] = failed / attempted
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "params": WORKLOADS[args.workload].params[args.scale],
        "env": measured["env"], "source": source_identity(),
        "setup_s_samples": setup,
        "op_wall_s": [op.get("wall") for op in ops],
        "traced_op_wall_s": [op.get("wall") for op in measured["traced"]],
        "verify_point_ms_tail": tail([s * 1e3 for op in ops for s in op.get("point_s", [])]),
        "quality": quality, "not_reported": NOT_REPORTED[args.workload],
        "stage_s": {key: [op.get(key) for op in ops] for key in ("attack_s", "eval_s")},
        "output_sha256": ops[0]["hashes"] if ops else {},
        "layer_shares": shares(measured),
        "missing_spans": measured["missing"],
        "absent_metrics": layers.absent(measured["missing"]),
        "errors": errors + [e for op in everything for e in op["errors"]],
    }
    correct = not details["errors"]
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"details": details, "result": result}, indent=1) + "\n")
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
