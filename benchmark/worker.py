"""Child process of run.py: prepares a workload's inputs, or runs its ops.

``--phase prep`` writes the inputs into the work directory. ``--phase
measure`` repeats the workload's op until ``--seconds`` have passed, first
untraced and then, with ``--trace 1``, traced, and prints one JSON line with
every op's raw measurements. Prep runs in its own process so that the peak
memory reported for the workload is that of the ops alone.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_SPANS_WRITTEN = 200_000  # about 10 MB


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))}


def run_op(workload, index, tracer):
    try:
        op = workload.op(index, tracer)
    except Exception as exc:  # an op that raises is one failed op, not a crash
        return {"wall": 0.0, "units": 1, "errors": [f"{type(exc).__name__}: {exc}"],
                "hashes": {}, "quality": {}}
    if tracer is not None:
        op["layers"], op["samples"] = layers.derive(tracer.spans)
        op["layers"]["experiment.files_written"] = op["files"]
        op["layers"]["experiment.bytes_written"] = op["bytes"]
    return op


def measure(workload, seconds, trace, deadline, spans_path):
    import freqmia  # noqa: F401  (the tracer patches modules already imported)

    ops, traced, missing = [], [], []
    start = time.time()
    untraced_until = start + (seconds / 2 if trace else seconds)

    def room():
        """Whether another op, as long as the last one, ends before the deadline."""
        done = ops + traced
        return time.time() + (done[-1]["wall"] if done else 0.0) < deadline

    while (len(ops) < (1 if trace else 2) or time.time() < untraced_until) and room():
        ops.append(run_op(workload, len(ops), None))
    tracer = Tracer()
    while trace and (len(traced) < 2 or time.time() < start + seconds) and room():
        tracer.clear()
        layers.install(tracer)
        try:
            op = run_op(workload, len(ops) + len(traced), tracer)
        finally:
            tracer.restore()
        missing = tracer.missing
        tracer.missing = []
        traced.append(op)
    if traced and spans_path:
        with open(spans_path, "w") as fh:
            fh.write(f"# spans of the last traced op: {len(tracer.spans)}, "
                     f"the first {MAX_SPANS_WRITTEN} written; name start end parent\n")
            for name, t0, t1, parent, _ in tracer.spans[:MAX_SPANS_WRITTEN]:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")
    return ops, traced, missing


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", choices=("prep", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, default=float("inf"))
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](args.workdir, args.seed, args.scale)
    if args.phase == "prep":
        workload.prep()
        print(json.dumps({"prepared": args.workload}))
        return 0
    ops, traced, missing = measure(workload, args.seconds, args.trace, args.deadline, args.spans)
    print(json.dumps({
        "ops": ops, "traced": traced, "missing": missing,
        "closed_forms": workload.closed_forms(), "env": environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
