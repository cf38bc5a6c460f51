"""What the traced run patches, and how per-layer metrics follow from spans.

Layers are freqmia's modules. Times are sums of span durations in seconds;
"self" is a span's duration minus the durations of its direct children.
Counts are exact. Values marked "computed" below are derived from argument
sizes, not measured.
"""

import hashlib
import math

import numpy as np

INFERENCE = ("denoiser.call", "denoiser.predict_batch")
ATTACK_KINDS = ("naive", "pia", "secmi")

# (name, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = [
    ("datasets.generate_s", "s", "lower"),
    ("datasets.samples", "count", "higher"),
    ("datasets.ingest_s", "s", "lower"),
    ("denoiser.train_s", "s", "lower"),
    ("denoiser.sgd_steps", "count", "lower"),
    ("denoiser.grad_s", "s", "lower"),
    ("denoiser.step_ms_p50", "ms", "lower"),
    ("denoiser.step_ms_p99", "ms", "lower"),
    ("denoiser.update_s", "s", "lower"),
    ("denoiser.train_samples_per_s", "samples/s", "higher"),
    ("denoiser.predict_calls", "count", "lower"),
    ("denoiser.predict_s", "s", "lower"),
    ("denoiser.rows_per_predict", "rows/call", "higher"),
    ("denoiser.save_s", "s", "lower"),
    ("denoiser.load_s", "s", "lower"),
    ("diffusion.chain_calls", "count", "lower"),
    ("diffusion.chain_self_s", "s", "lower"),
    ("diffusion.q_sample_calls", "count", "lower"),
    ("spectral.filter_calls", "count", "lower"),
    ("spectral.filter_s", "s", "lower"),
    ("spectral.hf_calls", "count", "lower"),
    ("spectral.hf_s", "s", "lower"),
    ("spectral.hf_useful_ratio", "1", "higher"),
    *[(f"attacks.{k}.s", "s", "lower") for k in ATTACK_KINDS],
    *[(f"attacks.{k}.pair_ms_p50", "ms", "lower") for k in ATTACK_KINDS],
    *[(f"attacks.{k}.pair_ms_p99", "ms", "lower") for k in ATTACK_KINDS],
    *[(f"attacks.{k}.predicts_per_sample", "calls/sample", "lower") for k in ATTACK_KINDS],
    ("attacks.score_s", "s", "lower"),
    ("attacks.csv_write_s", "s", "lower"),
    ("attacks.csv_read_s", "s", "lower"),
    ("evaluation.records_s", "s", "lower"),
    ("evaluation.asr_s", "s", "lower"),
    ("evaluation.roc_s", "s", "lower"),
    ("evaluation.ks_s", "s", "lower"),
    ("evaluation.asr_calls", "count", "lower"),
    ("evaluation.roc_calls", "count", "lower"),
    ("evaluation.roc_useful_ratio", "1", "higher"),
    ("evaluation.threshold_matrix_mb", "MB", "lower"),
    ("evaluation.mc_points", "count", "higher"),
    ("evaluation.mc_trials", "count", "higher"),
    ("evaluation.mc_s", "s", "lower"),
    ("evaluation.mc_point_ms_p50", "ms", "lower"),
    ("evaluation.mc_point_ms_p99", "ms", "lower"),
    ("evaluation.mc_normals_drawn", "count", "lower"),
    ("experiment.write_s", "s", "lower"),
    ("experiment.files_written", "count", "lower"),
    ("experiment.bytes_written", "bytes", "lower"),
    ("experiment.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# metrics that must repeat exactly from one traced op to the next
COUNTS = [name for name, unit, _ in PER_LAYER
          if unit in ("count", "bytes", "calls/sample", "rows/call")
          or name.endswith("useful_ratio") or name == "evaluation.threshold_matrix_mb"]

# spans each metric needs; a metric whose spans are all missing is absent
SOURCES = {
    "datasets.": ("datasets.generate", "datasets.ingest"),
    "denoiser.train": ("denoiser.train",), "denoiser.sgd": ("denoiser.grad",),
    "denoiser.grad": ("denoiser.grad",), "denoiser.step": ("denoiser.grad",),
    "denoiser.update": ("denoiser.train", "denoiser.grad"),
    "denoiser.predict": INFERENCE, "denoiser.rows": ("denoiser.predict_batch",),
    "denoiser.save": ("denoiser.save",), "denoiser.load": ("denoiser.load",),
    "diffusion.chain": ("diffusion.chain",), "diffusion.q_sample": ("diffusion.q_sample",),
    "spectral.filter": ("spectral.filter",), "spectral.hf": ("spectral.hf",),
    "attacks.score": ("attacks.score",), "attacks.csv_write": ("attacks.csv_write",),
    "attacks.csv_read": ("attacks.csv_read",),
    "evaluation.records": ("evaluation.records",), "evaluation.asr": ("evaluation.asr",),
    "evaluation.roc": ("evaluation.roc",), "evaluation.ks": ("evaluation.ks",),
    "evaluation.threshold": ("evaluation.asr", "evaluation.roc"),
    "evaluation.mc": ("evaluation.mc",), "experiment.write": ("experiment.write",),
    **{f"attacks.{k}": ("attacks.run", f"attacks.pair.{k}") for k in ATTACK_KINDS},
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _matrix_bytes(args, kwargs):
    """(n_distinct + 1) * n: the boolean threshold matrices one
    compute_asr/compute_roc call builds (computed, not measured)."""
    records = _arg(args, kwargs, 0, "records")
    column = "score_filtered" if _arg(args, kwargs, 1, "use_filtered", False) else "score_raw"
    values = [getattr(r, column) for r in records]
    return {"matrix_bytes": (len(set(values)) + 1) * len(values)}


def install(tracer):
    """Patch every traced public function; returns nothing, fills
    ``tracer.missing`` with the span names whose target is gone."""
    f, m = tracer.patch_function, tracer.patch_method
    f("freqmia.datasets", "generate_dataset", "datasets.generate",
      result=lambda v: {"n": len(v)})
    f("freqmia.datasets", "ingest_pgm_dir", "datasets.ingest")
    f("freqmia.denoiser", "train_toy_denoiser", "denoiser.train")
    f("freqmia.denoiser", "batch_loss_and_grads", "denoiser.grad",
      attrs=lambda a, k: {"rows": len(_arg(a, k, 1, "x0_batch"))})
    m("freqmia.denoiser", "ToyDenoiser", "__call__", "denoiser.call")
    m("freqmia.denoiser", "ToyDenoiser", "predict_batch", "denoiser.predict_batch",
      attrs=lambda a, k: {"rows": len(_arg(a, k, 1, "x_flat"))})
    f("freqmia.denoiser", "save_denoiser", "denoiser.save")
    f("freqmia.denoiser", "load_denoiser", "denoiser.load")
    f("freqmia.diffusion", "ddim_reverse_chain", "diffusion.chain")
    f("freqmia.diffusion", "ddim_denoise_chain", "diffusion.chain")
    f("freqmia.diffusion", "q_sample", "diffusion.q_sample")
    f("freqmia.spectral", "apply_filter", "spectral.filter")
    f("freqmia.spectral", "high_frequency_content", "spectral.hf",
      attrs=lambda a, k: {"image": hashlib.blake2b(
          np.asarray(_arg(a, k, 0, "image")).tobytes(), digest_size=16).digest()})
    f("freqmia.attacks", "run_attack", "attacks.run",
      attrs=lambda a, k: {"kind": _arg(a, k, 1, "config").kind,
                          "n": len(_arg(a, k, 0, "samples"))})
    for kind in ATTACK_KINDS:
        f("freqmia.attacks", f"{kind}_pair", f"attacks.pair.{kind}")
    f("freqmia.attacks", "paradigm_score", "attacks.score")
    f("freqmia.attacks", "write_score_csv", "attacks.csv_write")
    f("freqmia.attacks", "read_score_csv", "attacks.csv_read")
    f("freqmia.experiment", "evaluate_records", "evaluation.records")
    f("freqmia.evaluation", "compute_asr", "evaluation.asr", attrs=_matrix_bytes)
    f("freqmia.evaluation", "compute_roc", "evaluation.roc", attrs=_matrix_bytes)
    f("freqmia.evaluation", "ks_normality_test", "evaluation.ks")
    f("freqmia.evaluation", "proposition_mc_verify", "evaluation.mc",
      attrs=lambda a, k: {"n_samples": _arg(a, k, 1, "n_samples"),
                          "n_trials": _arg(a, k, 3, "n_trials", 100)})
    f("freqmia.evaluation", "write_metrics_json", "experiment.write",
      attrs=lambda a, k: {"pair": 1})
    f("freqmia.evaluation", "write_roc_csv", "experiment.write")
    f("freqmia.experiment", "_write_comparison", "experiment.write")
    f("freqmia.experiment", "run_experiment", "experiment.run")


def percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def derive(spans):
    """Per-layer metrics of one op's spans, plus the raw per-call samples
    (ms) that percentiles pool across ops."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    attack = [None] * n
    inside_inference = [False] * n
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            attack[i] = attack[parent]
            inside_inference[i] = inside_inference[parent] or spans[parent][0] in INFERENCE
        if name == "attacks.run":
            attack[i] = attrs["kind"]
    self_time = [d - c for d, c in zip(dur, child)]
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def idx(*names):
        return [i for name in names for i in by_name.get(name, [])]

    def total(*names):
        return sum(dur[i] for i in idx(*names))

    grads, trains = idx("denoiser.grad"), idx("denoiser.train")
    steps = []
    for t in trains:
        starts = sorted(spans[i][1] for i in grads if spans[i][3] == t)
        steps += [(b - a) * 1e3 for a, b in zip(starts, starts[1:] + [spans[t][2]])]
    outer_inference = [i for i in idx(*INFERENCE) if not inside_inference[i]]
    runs = idx("attacks.run")
    hf = idx("spectral.hf")
    asr_roc = idx("evaluation.asr", "evaluation.roc")
    roc_calls = len(idx("evaluation.roc"))
    pairs = sum(1 for i in idx("experiment.write") if spans[i][4])
    mc = idx("evaluation.mc")
    train_s, grad_s = total("denoiser.train"), total("denoiser.grad")

    out = {
        "datasets.generate_s": sum(self_time[i] for i in idx("datasets.generate")),
        "datasets.samples": sum(spans[i][4]["n"] for i in idx("datasets.generate")),
        "datasets.ingest_s": total("datasets.ingest"),
        "denoiser.train_s": train_s,
        "denoiser.sgd_steps": len(grads),
        "denoiser.grad_s": grad_s,
        "denoiser.step_ms_p50": percentile(steps, 50),
        "denoiser.step_ms_p99": percentile(steps, 99),
        "denoiser.update_s": train_s - grad_s,
        "denoiser.train_samples_per_s":
            sum(spans[i][4]["rows"] for i in grads) / train_s if train_s else 0.0,
        "denoiser.predict_calls": len(outer_inference),
        "denoiser.predict_s": sum(dur[i] for i in outer_inference),
        "denoiser.rows_per_predict":
            sum(spans[i][4]["rows"] for i in idx("denoiser.predict_batch"))
            / len(outer_inference) if outer_inference else 0.0,
        "denoiser.save_s": total("denoiser.save"),
        "denoiser.load_s": total("denoiser.load"),
        "diffusion.chain_calls": len(idx("diffusion.chain")),
        "diffusion.chain_self_s": sum(self_time[i] for i in idx("diffusion.chain")),
        "diffusion.q_sample_calls": len(idx("diffusion.q_sample")),
        "spectral.filter_calls": len(idx("spectral.filter")),
        "spectral.filter_s": total("spectral.filter"),
        "spectral.hf_calls": len(hf),
        "spectral.hf_s": total("spectral.hf"),
        "spectral.hf_useful_ratio":
            len({spans[i][4]["image"] for i in hf}) / len(hf) if hf else 0.0,
        "attacks.score_s": sum(self_time[i] for i in idx("attacks.score")),
        "attacks.csv_write_s": total("attacks.csv_write"),
        "attacks.csv_read_s": total("attacks.csv_read"),
        "evaluation.records_s": total("evaluation.records"),
        "evaluation.asr_s": total("evaluation.asr"),
        "evaluation.roc_s": total("evaluation.roc"),
        "evaluation.ks_s": total("evaluation.ks"),
        "evaluation.asr_calls": len(idx("evaluation.asr")),
        "evaluation.roc_calls": roc_calls,
        "evaluation.roc_useful_ratio": pairs / roc_calls if roc_calls else 0.0,
        "evaluation.threshold_matrix_mb":
            max((spans[i][4]["matrix_bytes"] for i in asr_roc), default=0) / 1e6,
        "evaluation.mc_points": len(mc),
        "evaluation.mc_trials": sum(spans[i][4]["n_trials"] for i in mc),
        "evaluation.mc_s": total("evaluation.mc"),
        "evaluation.mc_normals_drawn":
            sum(4 * spans[i][4]["n_samples"] * spans[i][4]["n_trials"] for i in mc),
        "experiment.write_s": total("experiment.write"),
        "experiment.self_s": sum(self_time[i] for i in idx("cli.main", "experiment.run")),
    }
    samples = {"denoiser.step_ms": steps,
               "evaluation.mc_point_ms": [dur[i] * 1e3 for i in mc]}
    for kind in ATTACK_KINDS:
        mine = [i for i in runs if spans[i][4]["kind"] == kind]
        sampled = sum(spans[i][4]["n"] for i in mine)
        predicts = sum(1 for i in outer_inference if attack[i] == kind)
        out[f"attacks.{kind}.s"] = sum(dur[i] for i in mine)
        out[f"attacks.{kind}.predicts_per_sample"] = predicts / sampled if sampled else 0.0
        samples[f"attacks.{kind}.pair_ms"] = [dur[i] * 1e3 for i in idx(f"attacks.pair.{kind}")]
    return out, samples


def absent(missing):
    """Per-layer metric names whose every source span could not be patched."""
    missing = set(missing)
    gone = []
    for name, _, _ in PER_LAYER:
        for prefix, sources in SOURCES.items():
            if name.startswith(prefix) and all(s in missing for s in sources):
                gone.append(name)
                break
    return gone
