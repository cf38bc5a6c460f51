"""The three workloads: inputs made from the seed, one timed op, its checks.

Each workload drives freqmia only through ``freqmia.cli.main`` and
``freqmia.evaluation.proposition_mc_verify``. The program sees nothing of
the benchmark but the config files and PGM directories written here.

An op is the unit that repeats within a run. Repeats share the seed, so
their ``*.csv``/``*.json`` outputs must be byte-identical.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import statistics
import time
from pathlib import Path

ATTACKS = ("naive", "pia", "secmi")
SECMI_T, SECMI_STRIDE = 100, 10  # freqmia's defaults, used by the closed forms
BATCH = 32


def _write_ini(path, sections):
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def _call_cli(tracer, argv):
    """Run one CLI command; returns (exit code, stderr text)."""
    from freqmia.cli import main

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        span = tracer.open("cli.main") if tracer else None
        try:
            code = main(argv)
        finally:
            if tracer:
                tracer.close(span)
    return code, err.getvalue().strip()


def _hash_outputs(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.suffix in (".csv", ".json")}


def _files(out):
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _read_metrics(out, errors):
    """Per-attack metrics JSONs; every number must be finite."""
    metrics = {}
    for kind in ATTACKS:
        for variant in ("raw", "filtered"):
            path = out / f"metrics_{kind}_{variant}.json"
            if not path.is_file():
                errors.append(f"missing {path.name}")
                continue
            data = json.loads(path.read_text())
            numbers = [v for v in data.values() if isinstance(v, (int, float))]
            numbers += [x for v in data.values() if isinstance(v, list) for x in v]
            if not all(math.isfinite(x) for x in numbers):
                errors.append(f"non-finite value in {path.name}")
            metrics[kind, variant] = data
    return metrics


def _quality(metrics):
    def mean(key, variant):
        values = [metrics[k, variant][key] for k in ATTACKS if (k, variant) in metrics]
        return sum(values) / len(values) if values else 0.0

    return {"auc_raw_mean": mean("auc", "raw"),
            "auc_filtered_mean": mean("auc", "filtered"),
            "tpr_at_1pct_fpr_filtered_mean": mean("tpr_at_1pct_fpr", "filtered")}


def _config_probe(ini):
    return ("from freqmia.experiment import ExperimentConfig; "
            f"ExperimentConfig.from_file({str(ini)!r})")


def _check_scores(out, ids, errors):
    """One finite score row per sample for each attack."""
    for kind in ATTACKS:
        path = out / f"scores_{kind}.csv"
        if not path.is_file():
            errors.append(f"missing {path.name}")
            continue
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if sorted(r["sample_id"] for r in rows) != ids:
            errors.append(f"{path.name}: rows do not match the samples one to one")
        values = [float(r[c]) for r in rows for c in ("score_raw", "score_filtered", "hf_content")]
        if not all(math.isfinite(v) for v in values):
            errors.append(f"{path.name}: non-finite score")


class DefaultRun:
    """``freqmia run`` on the default config with fewer epochs."""

    name = "default-run"
    params = {"full": {"n_member": 200, "n_holdout": 200, "epochs": 400},
              "smoke": {"n_member": 16, "n_holdout": 16, "epochs": 2}}

    def __init__(self, workdir, seed, scale):
        self.workdir, self.seed, self.p = Path(workdir), seed, self.params[scale]
        self.ini = self.workdir / "run.ini"

    def prep(self):
        p = self.p
        _write_ini(self.ini, {
            "experiment": {"seed": self.seed},
            "dataset": {"n_member": p["n_member"], "n_holdout": p["n_holdout"]},
            "training": {"epochs": p["epochs"]},
        })

    def probe(self):
        return _config_probe(self.ini)

    def op(self, index, tracer):
        out = self.workdir / f"op{index}"
        start = time.perf_counter()
        code, err = _call_cli(tracer, ["run", "--config", str(self.ini), "--out", str(out)])
        wall = time.perf_counter() - start
        errors = [f"run exited {code}: {err}"] if code != 0 else []
        n = self.p["n_member"] + self.p["n_holdout"]
        _check_scores(out, sorted(f"sample_{i:04d}" for i in range(n)), errors)
        metrics = _read_metrics(out, errors)
        attack_s = eval_s = None
        if not errors:
            attack_s, eval_s = self._stage_times(out)
        files, nbytes = _files(out)
        return {"wall": wall, "units": 1, "errors": errors, "hashes": _hash_outputs(out),
                "quality": _quality(metrics), "files": files, "bytes": nbytes,
                "attack_s": attack_s, "eval_s": eval_s, "scored": n * len(ATTACKS)}

    @staticmethod
    def _stage_times(out):
        """Attack and evaluation wall inside ``run``, from the times its
        outputs were last written: attack k ends with scores_k.csv, its
        evaluation with roc_k_filtered.csv, and training with
        train_loss.csv. Needs no tracing."""
        def mtime(name):
            return os.stat(out / name).st_mtime_ns / 1e9

        attack = evaluation = 0.0
        previous = mtime("train_loss.csv")
        for kind in ATTACKS:
            scored, done = mtime(f"scores_{kind}.csv"), mtime(f"roc_{kind}_filtered.csv")
            attack += scored - previous
            evaluation += done - scored
            previous = done
        return attack, evaluation

    def closed_forms(self):
        p = self.p
        n = p["n_member"] + p["n_holdout"]
        return {"denoiser.sgd_steps": p["epochs"] * math.ceil(p["n_member"] / BATCH),
                **_predict_forms(),
                "spectral.hf_calls": n * len(ATTACKS),
                "evaluation.roc_calls": 2 * 2 * len(ATTACKS)}


def _predict_forms():
    return {"attacks.naive.predicts_per_sample": 1.0,
            "attacks.pia.predicts_per_sample": 2.0,
            "attacks.secmi.predicts_per_sample": SECMI_T / SECMI_STRIDE + 2}


class LargeNStaged:
    """Staged ``freqmia attack`` then ``freqmia eval`` on a large PGM dataset,
    scored against a model trained on its member split during prep."""

    name = "large-n-staged"
    params = {"full": {"n_member": 3000, "n_holdout": 3000, "epochs": 10},
              "smoke": {"n_member": 24, "n_holdout": 24, "epochs": 1}}

    def __init__(self, workdir, seed, scale):
        self.workdir, self.seed, self.p = Path(workdir), seed, self.params[scale]
        self.ini = self.workdir / "staged.ini"
        self.data = self.workdir / "gen" / "dataset"
        self.model = self.workdir / "model" / "model.fmia"

    def prep(self):
        p = self.p
        gen_ini = self.workdir / "gen.ini"
        _write_ini(gen_ini, {
            "experiment": {"seed": self.seed},
            "dataset": {"n_member": p["n_member"], "n_holdout": p["n_holdout"]},
        })
        _write_ini(self.ini, {
            "experiment": {"seed": self.seed},
            "dataset": {"kind": "pgm_dir", "path": str(self.data)},
            "training": {"epochs": p["epochs"]},
        })
        for argv in (["gen-data", "--config", str(gen_ini), "--out", str(self.workdir / "gen")],
                     ["train", "--config", str(self.ini), "--out", str(self.model.parent)]):
            code, err = _call_cli(None, argv)
            if code != 0:
                raise RuntimeError(f"prep step {argv[0]} exited {code}: {err}")

    def probe(self):
        return _config_probe(self.ini)

    def op(self, index, tracer):
        out = self.workdir / f"op{index}"
        config = ["--config", str(self.ini), "--out", str(out)]
        start = time.perf_counter()
        code_a, err_a = _call_cli(tracer, ["attack", *config, "--model", str(self.model)])
        middle = time.perf_counter()
        code_e, err_e = _call_cli(tracer, ["eval", *config])
        end = time.perf_counter()
        errors = [f"{cmd} exited {code}: {err}" for cmd, code, err in
                  (("attack", code_a, err_a), ("eval", code_e, err_e)) if code != 0]
        manifest = (self.data / "manifest.csv").read_text().split()
        _check_scores(out, sorted(line.split(",")[0] for line in manifest), errors)
        metrics = _read_metrics(out, errors)
        files, nbytes = _files(out)
        return {"wall": end - start, "units": 2, "errors": errors,
                "hashes": _hash_outputs(out), "quality": _quality(metrics),
                "files": files, "bytes": nbytes, "attack_s": middle - start,
                "eval_s": end - middle, "scored": len(manifest) * len(ATTACKS)}

    def closed_forms(self):
        n = self.p["n_member"] + self.p["n_holdout"]
        return {"denoiser.sgd_steps": 0, **_predict_forms(),
                "spectral.hf_calls": n * len(ATTACKS),
                "evaluation.roc_calls": 2 * 2 * len(ATTACKS)}


def margin_points():
    """Criterion 4's grid: l_m x Delta x k with h_m = k, h_h = 1, kept where
    the constraint holds with margin k^2 - f > 0.05."""
    points = []
    for li in range(10):
        l_m = 0.5 + li / 9
        for di in range(10):
            delta = 0.1 + 0.45 * di / 9
            for ki in range(10):
                k = 1.0 + 0.8 * ki / 9
                f = 1.0 + 2.0 * delta * (l_m + 2.0 * delta - math.hypot(l_m + 2.0 * delta, 1.0))
                if k * k - f > 0.05:
                    points.append(((li, di, ki), {"l_m": l_m, "l_h": l_m + delta,
                                                  "h_m": k, "h_h": 1.0}))
    return points


class PropositionSweep:
    """``proposition_mc_verify`` over a seed-chosen subset of the margin points."""

    name = "proposition-sweep"
    params = {"full": {"points": 16, "n_samples": 100_000, "n_trials": 16},
              "smoke": {"points": 2, "n_samples": 10_000, "n_trials": 2}}

    def __init__(self, workdir, seed, scale):
        self.workdir, self.seed, self.p = Path(workdir), seed, self.params[scale]
        self.points_file = self.workdir / "points.json"

    def prep(self):
        chosen = random.Random(self.seed).sample(margin_points(), self.p["points"])
        points = []
        for grid, inputs in chosen:
            key = f"{self.seed}:" + ":".join(map(str, grid))
            mc_seed = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")
            points.append({"inputs": inputs, "seed": mc_seed})
        self.points_file.write_text(json.dumps(points))

    def probe(self):
        return ("import json; from freqmia.evaluation import PropositionInputs; "
                f"[PropositionInputs(**p['inputs']) for p in json.load(open({str(self.points_file)!r}))]")

    def op(self, index, tracer):
        from freqmia.evaluation import PropositionInputs, proposition_mc_verify

        points = json.loads(self.points_file.read_text())
        reports, point_s, errors = [], [], []
        start = time.perf_counter()
        for point in points:
            t0 = time.perf_counter()
            report = proposition_mc_verify(PropositionInputs(**point["inputs"]),
                                           n_samples=self.p["n_samples"], seed=point["seed"],
                                           n_trials=self.p["n_trials"])
            point_s.append(time.perf_counter() - t0)
            reports.append(report.to_json_dict())
        wall = time.perf_counter() - start
        for point, report in zip(points, reports):
            if not report["population_holds"]:
                errors.append(f"population_holds false at {point['inputs']}")
        blob = json.dumps(reports, sort_keys=True).encode()
        return {"wall": wall, "units": len(points), "errors": errors,
                "hashes": {"reports.json": hashlib.sha256(blob).hexdigest()},
                "quality": {"mc_fraction_min": min(r["fraction"] for r in reports)},
                "files": 0, "bytes": 0, "point_s": point_s,
                "eval_s": statistics.median(point_s)}

    def closed_forms(self):
        p = self.p
        return {"evaluation.mc_points": p["points"],
                "evaluation.mc_trials": p["points"] * p["n_trials"],
                "evaluation.mc_normals_drawn": 4 * p["n_samples"] * p["n_trials"] * p["points"],
                "denoiser.sgd_steps": 0,
                "spectral.hf_calls": 0}


WORKLOADS = {w.name: w for w in (DefaultRun, LargeNStaged, PropositionSweep)}
