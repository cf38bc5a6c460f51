"""End-to-end experiment orchestration: train, attack, evaluate, report.

An experiment is a pure function of its :class:`ExperimentConfig`,
including every random stream: sub-seeds for the dataset, training, and
each attack are derived from the single global seed. Running the same
config twice produces byte-identical outputs.

Config files are flat key-value text with one section per module
(INI syntax, parsed by :mod:`configparser`). The schema is the dataclass:
each field's metadata names its section, its key and its parser. A config
round-trips through its file form losslessly, and an unknown section or
key is rejected.

The pipeline is four stages, each a function here that ``run`` and the
staged CLI commands share:

* :func:`train_stage`     ``model.fmia``, ``train_loss.csv``
* :func:`attack_stage`    ``scores_<attack>.csv``
* :func:`evaluate_stage`  ``metrics_<attack>_<raw|filtered>.json``,
  ``roc_<attack>_<raw|filtered>.csv``
* :func:`report_stage`    ``failed_hf.json``, ``comparison.csv``,
  ``experiment.json``

All text files are UTF-8 with LF line endings and '.' decimals. The files
a later stage reads back (scores and the loss trace) hold ``repr`` floats,
so a staged run evaluates exactly the values ``run`` holds in memory and
writes the same bytes.

Inputs (config, dataset, schedule, model file, score CSVs, loss trace) are
loaded and checked before any stage, so a bad input raises its own error.
Text inputs may start with a UTF-8 byte-order mark. A stage writes each
file to the path :meth:`Pipeline.path` hands it; the first such path makes
``<out>`` and any subdirectory it names, so a command that fails before its
first write makes no ``<out>``. If a stage fails, every file the pipeline
handed out so far, a half-written one included, moves under
``<out>/partial/`` and an :class:`ExperimentError` naming the stage is raised.
"""

import configparser
import csv
import math
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path

from .attacks import ATTACK_KINDS, AttackConfig, run_attack, write_score_csv
from .datasets import DatasetSpec, generate_dataset
from .denoiser import (TrainingConfig, _check_embedding_dim, _check_layer_widths, save_denoiser,
                       train_toy_denoiser)
from .diffusion import linear_schedule
from .errors import ConfigurationError, ContractViolation, ExperimentError, IngestionError, reading
from .evaluation import (
    _write_json,
    build_metrics_report,
    compute_roc,
    failed_sample_hf_analysis,
    write_metrics_json,
    write_roc_csv,
)
from .seeding import derive_seed
from .spectral import FilterSpec, _check_boundary_radius

__all__ = [
    "ExperimentConfig",
    "Pipeline",
    "load_inputs",
    "train_stage",
    "attack_stage",
    "evaluate_stage",
    "report_stage",
    "run_experiment",
    "evaluate_records",
]

METRIC_KEYS = ("asr", "auc", "tpr_at_1pct_fpr")


def _ini(section, default, parse=None, key=None):
    """A config field kept under ``key`` (default: the field name) in
    ``[section]`` and read back with ``parse`` (default: the default's type)."""
    return field(default=default,
                  metadata={"section": section, "key": key, "parse": parse or type(default)})


def _ints(text):
    return tuple(int(v) for v in text.split(",") if v)


def _names(text):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _syntax_error(exc: configparser.Error) -> ConfigurationError:
    """A parser error as a :class:`ConfigurationError` that gives the line
    but not the file, which :func:`reading` adds."""
    if isinstance(exc, configparser.DuplicateSectionError):
        return ConfigurationError(f"section [{exc.section}] appears twice", line=exc.lineno)
    if isinstance(exc, configparser.DuplicateOptionError):
        return ConfigurationError(f"key {exc.option!r} appears twice in [{exc.section}]",
                                  line=exc.lineno)
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return ConfigurationError("expected a [section] header", line=exc.lineno)
    if isinstance(exc, configparser.ParsingError):
        return ConfigurationError("expected <key> = <value>", line=exc.errors[0][0])
    return ConfigurationError(str(exc))


def _schema(cls):
    """(field, section, key) for every config field, in file order."""
    return [(f, f.metadata["section"], f.metadata["key"] or f.name) for f in fields(cls)]


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment."""

    seed: int = _ini("experiment", 0)
    out_dir: str = _ini("experiment", "out")
    boundary_radius: float = _ini("experiment", 2.0)
    dataset_kind: str = _ini("dataset", "sharpened", key="kind")
    size: int = _ini("dataset", 16)
    gamma_min: float = _ini("dataset", 1.5)
    gamma_max: float = _ini("dataset", 3.0)
    n_member: int = _ini("dataset", 200)
    n_holdout: int = _ini("dataset", 200)
    dataset_path: str | None = _ini("dataset", None, parse=str, key="path")
    timesteps: int = _ini("schedule", 1000)
    beta_start: float = _ini("schedule", 1e-4)
    beta_end: float = _ini("schedule", 0.02)
    # training (overfits the 200-image member set by design)
    epochs: int = _ini("training", 5000)
    batch_size: int = _ini("training", 32)
    learning_rate: float = _ini("training", 0.01)
    momentum: float = _ini("training", 0.9)
    hidden_sizes: tuple = _ini("training", (256,), parse=_ints)
    embedding_dim: int = _ini("training", 16)
    attack_kinds: tuple = _ini("attacks", ATTACK_KINDS, parse=_names, key="kinds")
    q: int = _ini("attacks", 2)
    filter_s: float = _ini("attacks", 0.2)
    filter_rt: float = _ini("attacks", 5.0)
    naive_t: int = _ini("attacks", 200)
    pia_t: int = _ini("attacks", 200)
    secmi_t: int = _ini("attacks", 100)
    secmi_stride: int = _ini("attacks", 10)

    def __post_init__(self):
        # a bad dataset or training value, layer width, embedding dim, radius, attack
        # list, attack kind, q, stride, filter, schedule or attack timestep fails
        # before any stage
        if not self.attack_kinds:
            raise ConfigurationError("experiment needs at least one attack")
        for i, kind in enumerate(self.attack_kinds):
            if kind in self.attack_kinds[:i]:
                raise ConfigurationError(f"attack {kind!r} is listed more than once")
        self.dataset_spec()
        self.training_config()
        _check_layer_widths(self.hidden_sizes)
        _check_embedding_dim(self.embedding_dim)
        try:
            _check_boundary_radius(self.boundary_radius)
        except ContractViolation as exc:
            raise ConfigurationError(f"boundary_radius: {exc}") from exc
        sched = linear_schedule(self.timesteps, self.beta_start, self.beta_end)
        for attack_cfg in self.attack_configs():
            try:
                attack_cfg.validate_for_schedule(sched)
            except ConfigurationError as exc:
                raise ConfigurationError(f"attack {attack_cfg.kind}: {exc}") from exc

    def dataset_spec(self) -> DatasetSpec:
        return DatasetSpec(
            kind=self.dataset_kind,
            size=self.size,
            gamma_range=(self.gamma_min, self.gamma_max),
            n_member=self.n_member,
            n_holdout=self.n_holdout,
            seed=derive_seed(self.seed, "dataset"),
            path=self.dataset_path,
        )

    def training_config(self) -> TrainingConfig:
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            seed=derive_seed(self.seed, "training"),
        )

    def filter_spec(self) -> FilterSpec:
        return FilterSpec(s=self.filter_s, r_t=self.filter_rt)

    def attack_configs(self) -> list[AttackConfig]:
        t_for = {"naive": self.naive_t, "pia": self.pia_t, "secmi": self.secmi_t}
        return [
            AttackConfig(
                kind=kind,
                t_attack=t_for.get(kind),  # AttackConfig rejects an unknown kind
                stride=self.secmi_stride,
                q=self.q,
                seed=derive_seed(self.seed, "attack", kind),
                filter=self.filter_spec(),
            )
            for kind in self.attack_kinds
        ]

    def to_file(self, path) -> None:
        parser = configparser.ConfigParser(interpolation=None)
        for f, section, key in _schema(type(self)):
            value = getattr(self, f.name)
            if value is None:
                continue
            if not parser.has_section(section):
                parser.add_section(section)
            parser[section][key] = (",".join(map(str, value)) if isinstance(value, tuple)
                                    else str(value))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            parser.write(fh)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Read a config file; keys it omits keep their defaults."""
        path = Path(path)
        with reading(path):
            if not path.is_file():
                raise ConfigurationError("config file not found")
            parser = configparser.ConfigParser(interpolation=None)
            with open(path, encoding="utf-8-sig") as fh:
                try:
                    parser.read_file(fh)
                except configparser.Error as exc:
                    raise _syntax_error(exc) from exc
            schema = {(section, key): f for f, section, key in _schema(cls)}
            sections = {section for section, _ in schema}
            if parser.defaults():
                raise ConfigurationError(f"unknown section [{parser.default_section}]")
            values = {}
            for section in parser.sections():
                if section not in sections:
                    raise ConfigurationError(f"unknown section [{section}]")
                for key, text in parser.items(section):
                    f = schema.get((section, key))
                    if f is None:
                        raise ConfigurationError(f"unknown key {key!r} in [{section}]")
                    try:
                        values[f.name] = f.metadata["parse"](text)
                    except ValueError as exc:
                        raise ConfigurationError(f"[{section}] {key}: {exc}") from exc
            return cls(**values)


def evaluate_records(records) -> dict:
    """Metrics for one attack's raw and filtered columns, with the
    failed-sample frequency analysis at each column's ASR-optimal threshold."""
    result = {}
    for variant, use_filtered in (("raw", False), ("filtered", True)):
        report = build_metrics_report(records, use_filtered)
        failed_m, failed_h = failed_sample_hf_analysis(records, report.tau, use_filtered)
        result[variant] = {
            "metrics": report,
            "failed_hf": {"member": failed_m, "holdout": failed_h},
            "curve": compute_roc(records, use_filtered),
        }
    return result


def _write_comparison(path, evaluated) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["attack"]
        for key in METRIC_KEYS:
            header += [f"{key}_raw", f"{key}_filtered", f"{key}_delta"]
        writer.writerow(header)
        deltas = {key: [] for key in METRIC_KEYS}
        for kind, variants in evaluated.items():
            raw, filt = variants["raw"]["metrics"], variants["filtered"]["metrics"]
            cells = [kind]
            for key in METRIC_KEYS:
                r, f = getattr(raw, key), getattr(filt, key)
                cells += [f"{r:.12g}", f"{f:.12g}", f"{f - r:.12g}"]
                deltas[key].append(f - r)
            writer.writerow(cells)
        avg = ["avg+"]
        for key in METRIC_KEYS:
            avg += ["", "", f"{sum(deltas[key]) / len(deltas[key]):.12g}"]
        writer.writerow(avg)


class Pipeline:
    """The output directory of one command and the files its stages write.

    A stage writes each file to the path :meth:`path` hands out, which
    makes the output directory with the first file. Each stage runs inside
    :meth:`stage`. When one fails, every file this pipeline handed out
    moves under ``<out>/partial/`` (made only for such a file): a
    half-written one, or an older run's file of the same name that the
    stage did not get to replace. An :class:`ExperimentError` then names
    the stage.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.out = Path(config.out_dir)
        self.paths: list[Path] = []

    def path(self, name: str) -> Path:
        """``<out>/<name>``, recorded before it is written; makes its
        directory if needed."""
        target = self.out / name
        target.parent.mkdir(parents=True, exist_ok=True)
        self.paths.append(target)
        return target

    @contextmanager
    def stage(self, name: str):
        try:
            yield
        except Exception as exc:
            partial = self.out / "partial"
            for produced in self.paths:
                if produced.exists():
                    partial.mkdir(exist_ok=True)
                    shutil.move(str(produced), str(partial / produced.name))
            raise ExperimentError(name, str(exc)) from exc


def load_inputs(config: ExperimentConfig):
    """The labeled samples and the noise schedule every stage works on."""
    samples = generate_dataset(config.dataset_spec())
    sched = linear_schedule(config.timesteps, config.beta_start, config.beta_end)
    return samples, sched


def _members(samples):
    return [s.image for s in samples if s.membership == 1]


def _write_loss_trace(path, trace) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "loss"])
        for i, loss in enumerate(trace):
            writer.writerow([i, repr(float(loss))])


def _read_final_train_loss(out_dir):
    """Last loss of ``<out_dir>/train_loss.csv``; None without the file or
    an epoch. A blank line is skipped; any other row but an integer epoch
    and a finite loss raises :class:`IngestionError` naming the file and
    line."""
    path = Path(out_dir) / "train_loss.csv"
    if not path.is_file():
        return None
    loss = None
    with reading(path):
        lines = path.read_text(encoding="utf-8-sig").splitlines()
        for lineno, line in enumerate(lines[1:], start=2):  # line 1 is the header
            if not line:
                continue
            try:
                epoch, text = line.split(",")
                int(epoch)
                loss = float(text)
            except ValueError:
                loss = math.nan
            if not math.isfinite(loss):
                raise IngestionError(f"expected <epoch>,<finite loss>, got {line!r}", line=lineno)
    return loss


def train_stage(pipe: Pipeline, samples, sched):
    """Train the denoiser on the member split; writes ``model.fmia`` and
    ``train_loss.csv`` and returns ``(denoiser, loss_trace)``."""
    config = pipe.config
    with pipe.stage("train"):
        denoiser, trace = train_toy_denoiser(
            _members(samples), config.training_config(), sched,
            hidden_sizes=config.hidden_sizes, emb_dim=config.embedding_dim,
        )
        save_denoiser(denoiser, pipe.path("model.fmia"))
        _write_loss_trace(pipe.path("train_loss.csv"), trace)
    return denoiser, trace


def attack_stage(pipe: Pipeline, attack_cfg: AttackConfig, samples, denoiser, sched):
    """Score every sample with one attack; writes ``scores_<kind>.csv``."""
    with pipe.stage(f"attack:{attack_cfg.kind}"):
        records = run_attack(samples, attack_cfg, denoiser, sched,
                             hf_boundary_radius=pipe.config.boundary_radius)
        write_score_csv(records, pipe.path(f"scores_{attack_cfg.kind}.csv"))
    return records


def evaluate_stage(pipe: Pipeline, kind: str, records) -> dict:
    """Metrics and ROC curves of one attack's records, per score column."""
    with pipe.stage(f"eval:{kind}"):
        evaluated = evaluate_records(records)
        for variant, data in evaluated.items():
            write_metrics_json(data["metrics"], pipe.path(f"metrics_{kind}_{variant}.json"))
            write_roc_csv(data["curve"], pipe.path(f"roc_{kind}_{variant}.csv"))
    return evaluated


def report_stage(pipe: Pipeline, evaluated: dict, final_train_loss) -> dict:
    """Combine the per-attack evaluations (kind -> :func:`evaluate_records`
    result) and the last training loss, if any, into ``failed_hf.json``,
    ``comparison.csv`` and ``experiment.json``; returns the combined
    report."""
    with pipe.stage("report"):
        failed_hf = {}
        report = {"config": {"seed": pipe.config.seed}, "attacks": {}, "failed_hf": failed_hf,
                  "final_train_loss": final_train_loss}
        for kind, variants in evaluated.items():
            report["attacks"][kind] = {
                variant: {**data["metrics"].to_json_dict(), "tau": data["metrics"].tau}
                for variant, data in variants.items()
            }
            failed_hf[kind] = {variant: data["failed_hf"] for variant, data in variants.items()}
        _write_json(failed_hf, pipe.path("failed_hf.json"))
        _write_comparison(pipe.path("comparison.csv"), evaluated)
        _write_json(report, pipe.path("experiment.json"))
    return report


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the full pipeline and return the combined report dictionary:
    :func:`train_stage`, then :func:`attack_stage` and
    :func:`evaluate_stage` for each attack in turn, then
    :func:`report_stage`."""
    samples, sched = load_inputs(config)
    pipe = Pipeline(config)
    denoiser, trace = train_stage(pipe, samples, sched)
    evaluated = {}
    for attack_cfg in config.attack_configs():
        records = attack_stage(pipe, attack_cfg, samples, denoiser, sched)
        evaluated[attack_cfg.kind] = evaluate_stage(pipe, attack_cfg.kind, records)
    return report_stage(pipe, evaluated, trace[-1] if trace else None)
