"""The score-file and evaluation paths work on whole columns. The
per-record code they replaced is kept here as the oracle: the column code
must give the same array bytes, floats, file bytes and errors. The
Monte-Carlo verifier draws each class's sample covariance by Bartlett's
decomposition; a serial loop over its Wishart entries pins its ratio bytes
and report, and direct draws of every sample are its statistical oracle.
Scoring builds, norms and filters a stack of samples at a time, the
denoiser builds its own input row and the DDIM chains check their
timesteps once; the per-sample attacks and loop, the
``predict_batch``-based call and the fully checked DDIM step are kept
here as the oracle, and every record must be equal, whatever the chunk
size."""

import csv
import hashlib
import importlib.util
import json
import math
import random
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from freqmia import attacks, diffusion, evaluation
from freqmia.attacks import (
    AttackConfig,
    ScorePair,
    ScoreRecord,
    read_score_csv,
    run_attack,
    write_score_csv,
)
from freqmia.datasets import LabeledSample
from freqmia.denoiser import ToyDenoiser
from freqmia.diffusion import linear_schedule, predict_x0, q_sample
from freqmia.errors import ContractViolation, EvaluationError, IngestionError
from freqmia.evaluation import (
    McVerifyReport,
    PropositionInputs,
    RocCurve,
    _split_scores,
    compute_asr,
    compute_roc,
    failed_sample_hf_analysis,
    proposition_constraint,
    proposition_mc_verify,
    write_roc_csv,
)
from freqmia.seeding import derive_rng, derive_seed
from freqmia.spectral import FilterSpec, apply_filter, high_frequency_content

COLUMNS = ["sample_id", "membership", "score_raw", "score_filtered", "hf_content"]
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1.0 / 3.0]


# --- the per-record implementations -------------------------------------

def row_split_scores(records, use_filtered):
    column = "score_filtered" if use_filtered else "score_raw"
    member, holdout = [], []
    for rec in records:
        value = getattr(rec, column)
        if value is None or math.isnan(value):
            raise EvaluationError(f"record {rec.sample_id} has no {column} (got {value})")
        (member if rec.membership == 1 else holdout).append(float(value))
    if not member or not holdout:
        raise EvaluationError("need scores from both classes")
    return np.asarray(member), np.asarray(holdout)


def row_failed_sample_hf_analysis(records, tau, use_filtered=False):
    row_split_scores(records, use_filtered)
    column = "score_filtered" if use_filtered else "score_raw"
    failed_member = [r.hf_content for r in records
                     if r.membership == 1 and getattr(r, column) > tau]
    failed_holdout = [r.hf_content for r in records
                      if r.membership == 0 and getattr(r, column) <= tau]
    mean_m = float(np.mean(failed_member)) if failed_member else None
    mean_h = float(np.mean(failed_holdout)) if failed_holdout else None
    return mean_m, mean_h


def row_write_roc_csv(curve, path):
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "fpr", "tpr"])
        for tau, f, t in zip(curve.thresholds, curve.fpr, curve.tpr):
            writer.writerow([f"{tau:.12g}", f"{f:.12g}", f"{t:.12g}"])


def _fmt(x):
    return repr(float(x))


def row_write_score_csv(records, path):
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COLUMNS)
        for rec in records:
            writer.writerow([rec.sample_id, rec.membership, _fmt(rec.score_raw),
                             _fmt(rec.score_filtered), _fmt(rec.hf_content)])


def _finite(column, cell):
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"{column} must be finite, got {cell!r}")
    return value


def row_read_score_csv(path):
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in COLUMNS if c not in header]
        if missing:
            raise IngestionError(f"{path}: missing column(s) {', '.join(missing)}")
        columns = [header.index(c) for c in COLUMNS]
        for row in reader:
            if not row:
                continue
            try:
                lacks = [c for c, i in zip(COLUMNS, columns) if i >= len(row)]
                if lacks:
                    raise ValueError(f"{lacks[0]}: missing, the row has {len(row)} cell(s)")
                sample_id, membership, raw, filtered, hf = (row[i] for i in columns)
                record = ScoreRecord(sample_id, int(membership), _finite("score_raw", raw),
                                     _finite("score_filtered", filtered), _finite("hf_content", hf))
                if record.membership not in (0, 1):
                    raise ValueError(f"membership must be 0 or 1, got {membership!r}")
                records.append(record)
            except ValueError as exc:
                raise IngestionError(f"{path}, line {reader.line_num}: {exc}") from exc
    if not records:
        raise IngestionError(f"{path}: no score rows")
    return records


# --- inputs ----------------------------------------------------------------

def tied_records(seed, n=40):
    """Scores on coarse grids, so most values tie; both classes present."""
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 8, n) / 4.0
    filt = rng.integers(0, 5, n) * 0.3
    hf = rng.random(n)
    labels = rng.integers(0, 2, n)
    labels[:2] = (0, 1)
    return [ScoreRecord(f"s{i}", int(m), float(r), float(f), float(h))
            for i, (m, r, f, h) in enumerate(zip(labels, raw, filt, hf))]


def edge_records():
    values = EDGE_FLOATS + [0.1, 0.1]  # ties
    return [ScoreRecord(name, i % 2, v, values[-1 - i], abs(v))
            for i, (name, v) in enumerate(zip(
                ["a", "b,c", 'q"d', " e", "f g", "h", "i", "j", "k", "l"], values))]


def _bits(x):
    return None if x is None else float(x).hex()


# --- evaluation ------------------------------------------------------------

class TestSplitScores:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("use_filtered", [False, True])
    def test_same_array_bytes(self, seed, use_filtered):
        records = tied_records(seed)
        for got, want in zip(_split_scores(records, use_filtered),
                             row_split_scores(records, use_filtered)):
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    def test_edge_floats_keep_their_bits(self):
        records = edge_records()
        for use_filtered in (False, True):
            for got, want in zip(_split_scores(records, use_filtered),
                                 row_split_scores(records, use_filtered)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["none", "nan", "one_class", "empty"])
    def test_same_error(self, case):
        records = tied_records(3)
        use_filtered = case == "none"
        if case == "none":
            records[5] = records[5]._replace(score_filtered=None)
            records[9] = records[9]._replace(score_filtered=float("nan"))
        elif case == "nan":
            records[7] = records[7]._replace(score_raw=float("nan"))
        elif case == "one_class":
            records = [r._replace(membership=1) for r in records]
        else:
            records = []
        with pytest.raises(EvaluationError) as want:
            row_split_scores(records, use_filtered)
        with pytest.raises(EvaluationError) as got:
            _split_scores(records, use_filtered)
        assert str(got.value) == str(want.value)


class TestFailedSampleHf:
    @pytest.mark.parametrize("seed", range(30))
    def test_same_floats_and_empty_groups(self, seed):
        records = tied_records(100 + seed, n=12 + seed)
        for use_filtered in (False, True):
            column = "score_filtered" if use_filtered else "score_raw"
            distinct = sorted({getattr(r, column) for r in records})
            _, best = compute_asr(records, use_filtered)
            for tau in [-math.inf, *distinct, best, math.inf]:
                got = failed_sample_hf_analysis(records, tau, use_filtered)
                want = row_failed_sample_hf_analysis(records, tau, use_filtered)
                assert [_bits(x) for x in got] == [_bits(x) for x in want]


class TestRocCsv:
    def test_same_bytes_on_edge_values(self, tmp_path):
        curve = RocCurve(
            thresholds=np.array([-np.inf, -1e308, -0.0, 5e-324, 0.1, 1.0 / 3.0, 1e308]),
            fpr=np.array([0.0, -0.0, 0.25, 0.25, 0.5, 0.5, 1.0]),
            tpr=np.array([0.0, 1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0, 1.0, 1.0]),
        )
        write_roc_csv(curve, tmp_path / "new.csv")
        row_write_roc_csv(curve, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_same_bytes_on_tied_curves(self, tmp_path, seed):
        for use_filtered in (False, True):
            curve = compute_roc(tied_records(seed, n=60), use_filtered)
            write_roc_csv(curve, tmp_path / "new.csv")
            row_write_roc_csv(curve, tmp_path / "old.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# --- score files -----------------------------------------------------------

class TestScoreCsvWrite:
    @pytest.mark.parametrize("records", [edge_records(), tied_records(4), []],
                             ids=["edge", "tied", "empty"])
    def test_same_bytes(self, tmp_path, records):
        write_score_csv(records, tmp_path / "new.csv")
        row_write_score_csv(records, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestScoreCsvRead:
    @pytest.mark.parametrize("records", [edge_records(), tied_records(6)], ids=["edge", "tied"])
    def test_exact_round_trip(self, tmp_path, records):
        path = tmp_path / "scores.csv"
        write_score_csv(records, path)
        loaded = read_score_csv(path)
        assert loaded == row_read_score_csv(path) == records
        assert all(type(r) is ScoreRecord for r in loaded)
        assert [[_bits(x) for x in r[2:]] for r in loaded] == [[_bits(x) for x in r[2:]] for r in records]

    def test_cells_that_float_and_int_accept_are_accepted(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,membership,score_raw,score_filtered,hf_content\n"
                        "a, 1, 0.5,1_000.5,+1.5\n"
                        "b,+0,1E-3,١٢,0.25\n"
                        "\n"
                        '"c\nd",0_1,-0.0,5e-324,1e308\n')
        loaded = read_score_csv(path)
        want = row_read_score_csv(path)
        assert loaded == want
        assert [r.membership for r in loaded] == [1, 0, 1]
        assert [[_bits(x) for x in r[2:]] for r in loaded] == [[_bits(x) for x in r[2:]] for r in want]

    @pytest.mark.parametrize("body", [
        "a,1,oops,0.4,0.25\n",
        "a,yes,0.5,0.4,0.25\n",
        "a,1\n",
        "a,2,0.5,0.4,0.25\n",
        "b,0,0.7,0.6,0.25\na,1,nan,0.4,0.25\n",
        "b,0,0.7,0.6,0.25\na,1,0.5,inf,0.25\n",
        "b,0,0.7,0.6,0.25\na,1,0.5,0.4,-inf\n",
        "a,1,0.5,0.4,0.25\nb,0,0.7,,0.25\n",
        "a,1,0.5,,0.25\nb,0,0.7,0.6,0.25\n",
        "a,1,0.5,0.4,0.25\nb,0,0.7,oops,0.25\n",
        "a,1,0.5,0.4,0.25\nb,0,nan,0.6,0.25\n",
        "a,1,0.5,0.4,0.25\n\n\nb,2,nan,0.6,0.25\n",
        '"x\ny",1,0.5,0.4,0.25\nb,0,0.7,0.6,zz\n',
        "a,1,0.5,0.4,0.25\nb,0\nc,1,bad,0.6,0.25\n",
        "a,1,bad,0.4,0.25\nb,0\n",
        "a,1,0.5,0.4,0.25\nb,0,0.5,0.6,nan\nc,7,0.5,0.6,0.25\n",
        "a,1,bad,0.4,zz\n",
        "a,2,0.5,0.4,nan\n",
        "a,x,nan,0.4,0.25\n",
    ])
    def test_same_line_and_message(self, tmp_path, body):
        path = tmp_path / "scores.csv"
        path.write_text("sample_id,membership,score_raw,score_filtered,hf_content\n" + body)
        with pytest.raises(IngestionError) as want:
            row_read_score_csv(path)
        with pytest.raises(IngestionError) as got:
            read_score_csv(path)
        where, _, detail = str(want.value).partition(": ")
        got_where, _, got_detail = str(got.value).partition(": ")
        assert got_where == where
        # a cell that does not parse is now prefixed with its column
        assert got_detail == detail or got_detail.endswith(": " + detail)

    @pytest.mark.parametrize("seed", range(40))
    def test_first_bad_row_of_corrupted_files(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "scores.csv"
        write_score_csv(tied_records(seed, n=20), path)
        lines = path.read_text().splitlines()
        bad_cells = ["", "x", "nan", "-inf", "2", "1.5", " ", "1e999"]
        for _ in range(int(rng.integers(1, 4))):
            row = int(rng.integers(1, len(lines)))
            cells = lines[row].split(",")
            if rng.random() < 0.1:
                cells = cells[:int(rng.integers(1, 5))]
            else:
                cells[int(rng.integers(1, 5))] = bad_cells[int(rng.integers(len(bad_cells)))]
            lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        try:
            want = row_read_score_csv(path)
        except IngestionError as exc:
            with pytest.raises(IngestionError) as got:
                read_score_csv(path)
            where, _, detail = str(exc).partition(": ")
            got_where, _, got_detail = str(got.value).partition(": ")
            assert got_where == where
            assert got_detail == detail or got_detail.endswith(": " + detail)
        else:
            assert read_score_csv(path) == want


# --- the Monte-Carlo verifier ---------------------------------------------

def bartlett_mc_verify(inputs, n_samples, seed, n_trials):
    """The verifier as one serial loop over the Wishart entries of each
    class's scaled sample covariance (n - 1) S = L A A^T L, L = diag(l, h)
    and A = [[c1, 0], [z, c2]]; returns the report and the per-trial pre-
    and post-filter ratios."""
    degenerate = inputs.h_m == 0.0 and inputs.h_h == 0.0
    constraint = None if inputs.h_h == 0.0 else proposition_constraint(inputs)
    pop_pre = math.sqrt(inputs.l_h**2 + inputs.h_h**2) / math.sqrt(inputs.l_m**2 + inputs.h_m**2)
    pop_post = inputs.l_h / inputs.l_m
    children = np.random.SeedSequence(int(seed)).spawn(n_trials)
    hits = 0
    pre_ratios = np.empty(n_trials)
    post_ratios = np.empty(n_trials)
    for i, child in enumerate(children):
        rng = np.random.Generator(np.random.PCG64(child))
        var_pre, var_post = {}, {}
        for name, l_sd, h_sd in (("m", inputs.l_m, inputs.h_m), ("h", inputs.l_h, inputs.h_h)):
            c1 = math.sqrt(c1_sq := rng.chisquare(n_samples - 1))
            c2_sq = rng.chisquare(n_samples - 2)
            z = rng.standard_normal()
            w_low = l_sd * l_sd * c1_sq
            w_high = h_sd * h_sd * (z * z + c2_sq)
            w_cross = l_sd * h_sd * c1 * z
            var_post[name] = w_low
            var_pre[name] = w_low + w_high + 2.0 * w_cross
        pre_ratios[i] = math.sqrt(var_pre["h"] / var_pre["m"])
        post_ratios[i] = math.sqrt(var_post["h"] / var_post["m"])
        if post_ratios[i] > pre_ratios[i]:
            hits += 1
    report = McVerifyReport(
        fraction=hits / n_trials,
        n_trials=n_trials,
        n_samples=n_samples,
        precondition_met=constraint.satisfied if constraint is not None else False,
        degenerate=degenerate,
        constraint=constraint,
        population_ratio_pre=pop_pre,
        population_ratio_post=pop_post,
        population_holds=pop_post > pop_pre,
        mc_ratio_pre_mean=float(np.mean(pre_ratios)),
        mc_ratio_post_mean=float(np.mean(post_ratios)),
        mc_ratio_pre_se=float(np.std(pre_ratios, ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0,
        mc_ratio_post_se=float(np.std(post_ratios, ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else 0.0,
    )
    return report, pre_ratios, post_ratios


def direct_ratios(inputs, n_samples, n_trials, seed):
    """Per-trial pre- and post-filter ratios from ``n_samples`` float64
    draws of each class's low and high components."""
    rng = np.random.default_rng(seed)
    pre, post = np.empty(n_trials), np.empty(n_trials)
    for i in range(n_trials):
        sd_pre, sd_post = [], []
        for l_sd, h_sd in ((inputs.l_m, inputs.h_m), (inputs.l_h, inputs.h_h)):
            low = l_sd * rng.standard_normal(n_samples)
            high = h_sd * rng.standard_normal(n_samples)
            sd_pre.append(np.std(low + high, ddof=1))
            sd_post.append(np.std(low, ddof=1))
        pre[i] = sd_pre[1] / sd_pre[0]
        post[i] = sd_post[1] / sd_post[0]
    return pre, post


def ks_two_sample(a, b):
    """The two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, grid, side="right") / a.size
                               - np.searchsorted(b, grid, side="right") / b.size)))


def _benchmark_points():
    """The 16 margin points and verifier seeds of the seed-0
    ``proposition-sweep`` benchmark workload."""
    path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    chosen = random.Random(0).sample(workloads.margin_points(), 16)
    points = []
    for grid, inputs in chosen:
        key = "0:" + ":".join(map(str, grid))
        points.append((inputs, int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")))
    return points


CLEAR = PropositionInputs(l_m=1.0, l_h=1.2, h_m=0.5, h_h=0.5)


def mc_cases():
    """``(inputs, n_samples, seed, n_trials)``: the benchmark points at 1e4
    samples and the first at the benchmark's 1e5, a degenerate high band,
    odd trial counts, sample counts that are not round, magnitudes that
    overflow float32, and 1e12 samples."""
    points = _benchmark_points()
    cases = [(PropositionInputs(**inputs), 10_000, seed, 16) for inputs, seed in points]
    cases.append((PropositionInputs(**points[0][0]), 100_000, points[0][1], 16))
    cases.append((PropositionInputs(l_m=1.0, l_h=1.2, h_m=0.0, h_h=0.0), 10_000, 1, 10))
    cases += [(CLEAR, 10_000, 40 + n_trials, n_trials) for n_trials in (1, 3, 5, 7)]
    cases += [(CLEAR, n_samples, 7, 4) for n_samples in (10_001, 12_345)]
    cases.append((PropositionInputs(l_m=3e38, l_h=3e38, h_m=1e30, h_h=1.0), 10_000, 9, 5))
    cases.append((CLEAR, 10**12, 11, 6))
    return cases


MC_CASES = mc_cases()


class TestMcVerify:
    @pytest.mark.parametrize("case", range(len(MC_CASES)))
    @pytest.mark.parametrize("count_type, seed_type", [(int, int), (np.int64, int), (int, np.uint64)],
                             ids=["python", "int64_counts", "uint64_seed"])
    def test_same_ratio_bytes_and_report(self, case, count_type, seed_type):
        """The arguments may come as Python or numpy integers (benchmark
        seeds need uint64); the report is the same, down to its JSON."""
        inputs, n_samples, seed, n_trials = MC_CASES[case]
        want, want_pre, want_post = bartlett_mc_verify(inputs, n_samples, seed, n_trials)
        pre, post = evaluation._trial_ratios(inputs, n_samples, seed, n_trials)
        got = proposition_mc_verify(inputs, count_type(n_samples), seed_type(seed),
                                    count_type(n_trials))
        assert pre.tobytes() == want_pre.tobytes()
        assert post.tobytes() == want_post.tobytes()
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())

    def test_degenerate_band_gives_bitwise_equal_ratios(self):
        inputs = PropositionInputs(l_m=1.0, l_h=1.2, h_m=0.0, h_h=0.0)
        pre, post = evaluation._trial_ratios(inputs, 10_000, 3, 50)
        assert pre.tobytes() == post.tobytes()

    def test_trial_does_not_depend_on_the_trial_count(self):
        pre, post = evaluation._trial_ratios(CLEAR, 10_000, 5, 8)
        pre_3, post_3 = evaluation._trial_ratios(CLEAR, 10_000, 5, 3)
        assert pre[:3].tobytes() == pre_3.tobytes() and post[:3].tobytes() == post_3.tobytes()

    @pytest.mark.parametrize("inputs", [CLEAR, PropositionInputs(l_m=0.7, l_h=0.9, h_m=1.4, h_h=1.0)],
                             ids=["clear", "k_above_1"])
    def test_same_distribution_as_direct_draws(self, inputs):
        """Two-sample KS of 400 Bartlett trials against 400 direct-draw
        trials at n = 1e4, at the 0.1% level: the critical value of D is
        c(0.001) sqrt(2 / 400), c(alpha) = sqrt(-ln(alpha / 2) / 2)."""
        n, trials = 10_000, 400
        pre, post = evaluation._trial_ratios(inputs, n, 2024, trials)
        want_pre, want_post = direct_ratios(inputs, n, trials, seed=4048)
        critical = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt(2 / trials)
        for got, want in ((pre, want_pre), (post, want_post), (post - pre, want_post - want_pre)):
            assert ks_two_sample(got, want) < critical

    def test_a_trial_costs_the_same_at_any_sample_count(self):
        start = time.perf_counter()
        report = proposition_mc_verify(CLEAR, 10**12, 0, 16)
        assert time.perf_counter() - start < 1.0
        assert report.fraction == 1.0

    def test_peak_memory_does_not_grow_with_the_sample_count(self):
        """numpy traces its data buffers. 1e5 comes before 1e9 so that a
        verifier that allocates per sample fails before it asks for GBs."""
        peaks = []
        proposition_mc_verify(CLEAR, 10_000, 0, 16)  # warm up numpy's and Python's caches
        for n in (10_000, 100_000, 10**9):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                proposition_mc_verify(CLEAR, n, 0, 16)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            assert peaks[-1] == peaks[0], (n, peaks)


# --- scoring ---------------------------------------------------------------

def row_paradigm_score(pair, q, filt):
    diff = pair.predicted - pair.target
    if filt is not None:
        diff = apply_filter(diff, filt)
    if q == 1:
        return float(np.sum(np.abs(diff)))
    return float(np.sqrt(np.sum(diff**2)))


class RowDenoiser:
    """A ToyDenoiser called the way it was before it built its own input
    row: a one-row ``predict_batch``."""

    def __init__(self, den):
        self.den = den

    def __call__(self, x, t):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.den.image_shape:
            raise ContractViolation(f"input shape {x.shape} != model shape {self.den.image_shape}")
        return self.den.predict_batch(x.reshape(1, -1), np.array([t])).reshape(x.shape)


def checked_ddim_step(x, t_src, t_dst, denoiser, sched):
    x = np.asarray(x, dtype=np.float64)
    eps_hat = np.asarray(denoiser(x, int(t_src)), dtype=np.float64)
    if eps_hat.shape != x.shape:
        raise ContractViolation(f"denoiser output shape {eps_hat.shape} != state shape {x.shape}")
    x0_hat = predict_x0(x, eps_hat, t_src, sched)
    return sched.sqrt_abar[t_dst] * x0_hat + sched.sqrt_one_minus_abar[t_dst] * eps_hat


def row_pair(sample, config, denoiser, sched):
    """One sample's (predicted, target) pair, built on its own: naive draws
    its noise from the sample's seed, pia takes the prediction at t=0, and
    secmi runs its DDIM round trip on the one image."""
    x0 = np.asarray(sample.image, dtype=np.float64)
    t, stride = config.t_attack, config.stride
    if config.kind == "secmi":
        x_tilde = diffusion.ddim_reverse_chain(x0, 0, t, denoiser, sched, stride)
        up = diffusion.ddim_reverse_chain(x_tilde, t, t + stride, denoiser, sched, stride)
        predicted = diffusion.ddim_denoise_chain(up, t + stride, t, denoiser, sched, stride)
        return ScorePair(predicted=predicted, target=x_tilde)
    if config.kind == "naive":
        seed = derive_seed(config.seed, "attack-sample", sample.sample_id)
        eps = derive_rng(seed, "naive-eps").standard_normal(x0.shape)
    else:
        eps = np.asarray(denoiser(x0, 0), dtype=np.float64)
    x_t = q_sample(x0, t, eps, sched)
    return ScorePair(predicted=predict_x0(x_t, denoiser(x_t, t), t, sched),
                     target=predict_x0(x_t, eps, t, sched))


def row_run_attack(samples, config, denoiser, sched, monkeypatch, hf_boundary_radius=2.0):
    """Score one sample at a time, each DDIM step checking its timesteps
    and each pair checked for a non-finite value before it is scored."""
    config.validate_for_schedule(sched)
    records = []
    with monkeypatch.context() as patch:
        patch.setattr(diffusion, "_ddim_step", checked_ddim_step)
        for sample in samples:
            pair = row_pair(sample, config, denoiser, sched)
            if not (np.isfinite(pair.predicted).all() and np.isfinite(pair.target).all()):
                raise ContractViolation(f"the pair of sample {sample.sample_id!r} is non-finite")
            raw = row_paradigm_score(pair, config.q, None)
            filtered = row_paradigm_score(pair, config.q, config.filter)
            hf = high_frequency_content(sample.image, hf_boundary_radius)
            records.append(ScoreRecord(sample.sample_id, int(sample.membership), raw,
                                       filtered, hf))
    return records


SCORE_T = 40
SCORE_SIZES = [1, 63, 64, 65, 131]


@pytest.fixture(scope="module")
def score_sched():
    return linear_schedule(SCORE_T, 1e-3, 0.05)


def score_samples(shape, n, seed=0):
    rng = np.random.default_rng(seed)
    return [LabeledSample(f"s{i}", rng.uniform(0.0, 1.0, shape), i % 2) for i in range(n)]


def _record_bits(records):
    return [(r.sample_id, r.membership, _bits(r.score_raw), _bits(r.score_filtered),
             _bits(r.hf_content)) for r in records]


class TestStackedScoring:
    @pytest.mark.parametrize("shape", [(1, 6, 6), (3, 5, 4)], ids=["1ch", "3ch"])
    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("kind", ["naive", "pia", "secmi"])
    def test_same_records_as_the_per_sample_loop(self, monkeypatch, score_sched, shape, q, kind):
        den = ToyDenoiser.initialize(shape, (16,), 8, SCORE_T, seed=5)
        config = AttackConfig(kind=kind, t_attack=10, stride=5, q=q, seed=3,
                              filter=FilterSpec(s=0.2, r_t=1.5))
        samples = score_samples(shape, max(SCORE_SIZES))
        for n in SCORE_SIZES:
            got = run_attack(samples[:n], config, den, score_sched)
            want = row_run_attack(samples[:n], config, RowDenoiser(den), score_sched, monkeypatch)
            assert _record_bits(got) == _record_bits(want), n

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("kind", ["naive", "pia", "secmi"])
    def test_records_do_not_depend_on_the_chunk_size(self, monkeypatch, score_sched, q, kind):
        den = ToyDenoiser.initialize((1, 6, 6), (16,), 8, SCORE_T, seed=5)
        config = AttackConfig(kind=kind, t_attack=10, stride=5, q=q, seed=3,
                              filter=FilterSpec(s=0.2, r_t=1.5))
        samples = score_samples((1, 6, 6), 131)
        got = {}
        for chunk in (1, 7, 64, 1000):
            monkeypatch.setattr(attacks, "_SCORE_CHUNK", chunk)
            got[chunk] = _record_bits(run_attack(samples, config, den, score_sched))
        assert all(records == got[64] for records in got.values())

    @pytest.mark.parametrize("shape", [(1, 8, 8), (3, 4, 5)], ids=["1ch", "3ch"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_call_matches_one_row_predict_batch(self, shape, dtype):
        den = ToyDenoiser.initialize(shape, (24, 12), 8, SCORE_T, seed=6).astype(dtype)
        x = np.random.default_rng(7).standard_normal(shape)
        for t in (0, SCORE_T - 1, np.int64(SCORE_T - 1)):
            want = den.predict_batch(x.reshape(1, -1), [t])[0].reshape(shape)
            got = den(x, t)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, calls_per_sample", [("naive", 1), ("pia", 2), ("secmi", 4)])
    def test_nan_prediction_mid_chunk_still_raises(self, monkeypatch, score_sched, kind,
                                                   calls_per_sample):
        den = ToyDenoiser.initialize((1, 6, 6), (16,), 8, SCORE_T, seed=5)
        samples = score_samples((1, 6, 6), 100)
        config = AttackConfig(kind=kind, t_attack=10, stride=5, seed=3,
                              filter=FilterSpec(s=0.2, r_t=1.5))
        calls = []

        def recording(x, t):
            calls.append((np.asarray(x).tobytes(), t))
            return den(x, t)

        row_run_attack(samples, config, recording, score_sched, monkeypatch)
        first_call_of_sample_70 = calls[70 * calls_per_sample]
        calls.clear()

        def denoiser(x, t):
            # NaN for the first call of sample 70: call 70 * calls_per_sample
            # + 1 one sample at a time, a call inside the second chunk when a
            # chunk steps in lockstep; a stacked input row has the bits of
            # the same row scored alone
            calls.append(t)
            eps = den(x, t)
            poisoned = (np.asarray(x).tobytes(), t) == first_call_of_sample_70
            return np.full_like(eps, np.nan) if poisoned else eps

        with pytest.raises(ContractViolation,
                           match="the pair of sample 's70' is non-finite") as got:
            run_attack(samples, config, denoiser, score_sched)
        assert len(calls) == 100 * calls_per_sample  # the chunk's pairs were built first
        calls.clear()
        with pytest.raises(ContractViolation) as want:
            row_run_attack(samples, config, denoiser, score_sched, monkeypatch)
        assert len(calls) == 71 * calls_per_sample
        assert str(got.value) == str(want.value)
