"""Acceptance gate.

Each criterion is one test that prints a single PASS/FAIL line on the
terminal (bypassing capture) before asserting. The end-to-end criteria
share one session-scoped bundle of default experiment runs: three seeded
runs, an untrained control, and a byte-determinism repeat of seed 0.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from freqmia.attacks import naive_pair, paradigm_score, pia_pair, secmi_pair
from freqmia.denoiser import ToyDenoiser, batch_loss_and_grads, layer_views
from freqmia.diffusion import linear_schedule, q_sample
from freqmia.evaluation import (
    PropositionInputs,
    auc,
    compute_asr,
    compute_roc,
    proposition_constraint,
    proposition_mc_verify,
    tpr_at_fpr,
)
from freqmia.experiment import default_config, run_experiment
from freqmia.seeding import derive_rng, derive_seed
from freqmia.spectral import forward_dft, inverse_dft

from test_evaluation import asr_oracle, auc_oracle, make_records, tpr_at_fpr_oracle
from test_spectral import dft_oracle

pytestmark = pytest.mark.slow

SEEDS = (0, 1, 2)
ATTACKS = ("naive", "pia", "secmi")


def announce(capsys, number, name, ok):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_spectral_oracle(capsys):
    start = time.time()
    shapes = [(2, 2), (3, 5), (4, 4), (5, 7), (8, 8), (9, 11), (12, 16), (16, 16)]
    worst_oracle = worst_round_trip = worst_parseval = 0.0
    for i in range(100):
        h, w = shapes[i % len(shapes)]
        img = derive_rng(1000, "accept1", str(i)).uniform(-1.0, 1.0, size=(h, w))
        spec = forward_dft(img)
        worst_oracle = max(worst_oracle, float(np.max(np.abs(spec - dft_oracle(img)))))
        worst_round_trip = max(worst_round_trip,
                               float(np.max(np.abs(inverse_dft(spec) - img))))
        pixels = float(np.sum(img**2))
        coeffs = float(np.sum(np.abs(spec) ** 2)) / (h * w)
        worst_parseval = max(worst_parseval, abs(pixels - coeffs) / pixels)
    elapsed = time.time() - start
    ok = (worst_oracle < 1e-9 and worst_round_trip < 1e-6
          and worst_parseval < 1e-6 and elapsed < 10.0)
    assert announce(capsys, 1, "spectral oracle equivalence", ok)
    assert worst_oracle < 1e-9
    assert worst_round_trip < 1e-6
    assert worst_parseval < 1e-6
    assert elapsed < 10.0


def test_criterion_2_attack_identities(capsys):
    sched = linear_schedule(1000, 1e-4, 0.02)
    worst_naive = worst_pia = 0.0
    for i in range(50):
        rng = derive_rng(1000, "accept2", str(i))
        x0 = rng.uniform(-1.0, 1.0, size=(1, 8, 8))
        t = int(rng.integers(1, sched.T - 1))
        eps_hat = rng.standard_normal((1, 8, 8))
        den = lambda x, tt, e=eps_hat: e.copy()
        scale = math.sqrt((1.0 - sched.alpha_bar[t]) / sched.alpha_bar[t])

        seed = int(rng.integers(0, 2**32))
        pair = naive_pair(x0, t, den, sched, seed=seed)
        eps = derive_rng(seed, "naive-eps").standard_normal(x0.shape)
        oracle = scale * math.sqrt(float(np.sum((eps - eps_hat) ** 2)))
        worst_naive = max(worst_naive, abs(paradigm_score(pair, q=2) - oracle))

        pair = pia_pair(x0, t, den, sched)
        # state-independent stub: eps0 equals the prediction, score is 0
        worst_pia = max(worst_pia, abs(paradigm_score(pair, q=2) - 0.0))

        # state-dependent check of the pia identity
        den_affine = lambda x, tt: 0.4 * x + 0.05 * np.roll(x, 1, axis=-1)
        pair = pia_pair(x0, t, den_affine, sched)
        eps0 = den_affine(x0, 0)
        x_t = q_sample(x0, t, eps0, sched)
        oracle = scale * math.sqrt(float(np.sum((eps0 - den_affine(x_t, t)) ** 2)))
        worst_pia = max(worst_pia, abs(paradigm_score(pair, q=2) - oracle))

    # secmi t-error vanishes for any state-independent denoiser; float
    # round-off caps the achievable zero at ~1e-15, asserted at 1e-12
    worst_secmi = 0.0
    for i in range(10):
        rng = derive_rng(1000, "accept2-secmi", str(i))
        x0 = rng.uniform(-1.0, 1.0, size=(1, 8, 8))
        const = rng.standard_normal((1, 8, 8)) if i else np.zeros((1, 8, 8))
        den = lambda x, tt, c=const: c.copy()
        pair = secmi_pair(x0, 100, den, sched, stride=10)
        worst_secmi = max(worst_secmi, paradigm_score(pair, q=2))

    ok = worst_naive < 1e-9 and worst_pia < 1e-9 and worst_secmi < 1e-12
    assert announce(capsys, 2, "algebraic attack identities", ok)
    assert worst_naive < 1e-9
    assert worst_pia < 1e-9
    assert worst_secmi < 1e-12


def test_criterion_3_metric_oracles(capsys):
    start = time.time()
    worst_auc = 0.0
    asr_ok = tpr_ok = True
    for i in range(1000):
        rng = derive_rng(1000, "accept3", str(i))
        n_m = int(rng.integers(2, 51))
        n_h = int(rng.integers(2, 51))
        decimals = int(rng.integers(0, 3))  # coarse rounding forces ties
        member = np.round(rng.normal(0.0, 1.0, n_m), decimals)
        holdout = np.round(rng.normal(0.5, 1.2, n_h), decimals)
        records = make_records(member, holdout)
        curve = compute_roc(records)
        worst_auc = max(worst_auc, abs(auc(curve) - auc_oracle(member, holdout)))
        asr, _ = compute_asr(records)
        if abs(asr - asr_oracle(member, holdout)) > 1e-12:
            asr_ok = False
        if abs(tpr_at_fpr(curve, 0.01) - tpr_at_fpr_oracle(member, holdout, 0.01)) > 1e-12:
            tpr_ok = False
    elapsed = time.time() - start
    ok = worst_auc <= 1e-12 and asr_ok and tpr_ok and elapsed < 30.0
    assert announce(capsys, 3, "metric oracles", ok)
    assert worst_auc <= 1e-12
    assert asr_ok and tpr_ok
    assert elapsed < 30.0


def test_criterion_4_proposition_verification(capsys):
    start = time.time()
    l_ms = np.linspace(0.5, 1.5, 10)
    deltas = np.linspace(0.1, 0.55, 10)
    ks = np.linspace(1.0, 1.8, 10)
    margin_points = mc_failures = population_failures = 0
    worst_fraction = 1.0
    for li, l_m in enumerate(l_ms):
        for di, delta in enumerate(deltas):
            for ki, k in enumerate(ks):
                inputs = PropositionInputs(l_m=float(l_m), l_h=float(l_m + delta),
                                           h_m=float(k), h_h=1.0)
                constraint = proposition_constraint(inputs)
                if constraint.k_sq - constraint.f <= 0.05:
                    continue
                margin_points += 1
                report = proposition_mc_verify(
                    inputs, n_samples=100_000,
                    seed=derive_seed(2024, "accept4", str(li), str(di), str(ki)),
                    n_trials=16,
                )
                worst_fraction = min(worst_fraction, report.fraction)
                if not report.fraction > 0.99:
                    mc_failures += 1
                if not report.population_holds:
                    population_failures += 1
    elapsed = time.time() - start
    ok = (margin_points > 0 and mc_failures == 0 and population_failures == 0
          and elapsed < 120.0)
    announce(capsys, 4,
             f"proposition verification ({margin_points} margin points, "
             f"min fraction {worst_fraction:.4f}, {elapsed:.0f}s)", ok)
    assert margin_points > 0
    assert mc_failures == 0
    assert population_failures == 0
    assert elapsed < 120.0


def test_criterion_5_gradient_correctness(capsys):
    sched = linear_schedule(50, 1e-3, 0.05)
    den = ToyDenoiser.initialize((1, 8, 8), (24,), 8, sched.T, seed=77)
    rng = derive_rng(1000, "accept5")
    x0 = rng.standard_normal((8, 1, 8, 8))
    eps = rng.standard_normal((8, 1, 8, 8))
    t = rng.integers(0, sched.T, size=8)
    _, grad = batch_loss_and_grads(den, x0, t, eps, sched)
    w_grads, _ = layer_views(grad, den.layer_sizes)

    params = [(layer, idx) for layer in range(len(den.weights))
              for idx in range(den.weights[layer].size)]
    picks = rng.choice(len(params), size=20, replace=False)
    step = 1e-5
    worst_rel = 0.0
    for pick in picks:
        layer, idx = params[pick]
        flat = den.weights[layer].ravel()
        original = flat[idx]
        flat[idx] = original + step
        up, _ = batch_loss_and_grads(den, x0, t, eps, sched)
        flat[idx] = original - step
        down, _ = batch_loss_and_grads(den, x0, t, eps, sched)
        flat[idx] = original
        fd = (up - down) / (2 * step)
        an = w_grads[layer].ravel()[idx]
        worst_rel = max(worst_rel, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    ok = worst_rel < 1e-4
    announce(capsys, 5, f"gradient correctness (worst rel err {worst_rel:.2e})", ok)
    assert worst_rel < 1e-4


@pytest.fixture(scope="session")
def default_runs(tmp_path_factory):
    """Three seeded default experiments, an untrained control, and a
    repeat of seed 0 for byte-determinism."""
    root = tmp_path_factory.mktemp("acceptance")
    start = time.time()
    reports = {}
    for seed in SEEDS:
        config = default_config(seed=seed, out_dir=str(root / f"seed{seed}"))
        reports[seed] = run_experiment(config)
    control_config = dataclasses.replace(
        default_config(seed=SEEDS[0], out_dir=str(root / "control")), epochs=0)
    control = run_experiment(control_config)
    repeat_config = default_config(seed=SEEDS[0], out_dir=str(root / "repeat"))
    run_experiment(repeat_config)
    elapsed = time.time() - start
    return {"root": root, "reports": reports, "control": control, "elapsed": elapsed}


def test_criterion_6_membership_signal(default_runs, capsys):
    raw_aucs = {(seed, kind): default_runs["reports"][seed]["attacks"][kind]["raw"]["auc"]
                for seed in SEEDS for kind in ATTACKS}
    control_aucs = {kind: default_runs["control"]["attacks"][kind]["raw"]["auc"]
                    for kind in ATTACKS}
    signal_ok = all(value > 0.6 for value in raw_aucs.values())
    control_ok = all(0.4 <= value <= 0.6 for value in control_aucs.values())
    time_ok = default_runs["elapsed"] < 900.0
    summary = ", ".join(f"{k}={min(raw_aucs[(s, k)] for s in SEEDS):.3f}min" for k in ATTACKS)
    ok = signal_ok and control_ok and time_ok
    announce(capsys, 6,
             f"membership signal (raw AUC {summary}; control "
             f"{', '.join(f'{k}={v:.3f}' for k, v in control_aucs.items())}; "
             f"{default_runs['elapsed']:.0f}s)", ok)
    assert signal_ok, f"raw AUCs: {raw_aucs}"
    assert control_ok, f"control AUCs: {control_aucs}"
    assert time_ok


def test_criterion_7_filter_improvement(default_runs, capsys):
    deltas = {}
    for seed in SEEDS:
        for kind in ATTACKS:
            attack = default_runs["reports"][seed]["attacks"][kind]
            deltas[(seed, kind)] = attack["filtered"]["auc"] - attack["raw"]["auc"]
    per_attack_ok = all(
        sum(deltas[(seed, kind)] >= 0.0 for seed in SEEDS) >= 2 for kind in ATTACKS)
    mean_delta = float(np.mean(list(deltas.values())))
    ok = per_attack_ok and mean_delta > 0.0
    announce(capsys, 7, f"filter improvement (mean delta {mean_delta:+.4f})", ok)
    assert per_attack_ok, f"deltas: {deltas}"
    assert mean_delta > 0.0


def test_criterion_8_failed_sample_hf_direction(default_runs, capsys):
    checked = 0
    direction_ok = True
    for seed in SEEDS:
        failed = default_runs["reports"][seed]["failed_hf"]["naive"]["raw"]
        if failed["member"] is None or failed["holdout"] is None:
            continue
        checked += 1
        if not failed["member"] > failed["holdout"]:
            direction_ok = False
    ok = direction_ok and checked > 0
    announce(capsys, 8,
             f"failed-sample HF direction ({checked} seeds with both groups)", ok)
    assert direction_ok
    assert checked > 0


def test_criterion_9_determinism(default_runs, capsys):
    root = default_runs["root"]
    baseline = root / f"seed{SEEDS[0]}"
    repeat = root / "repeat"
    mismatched = []
    names = sorted(p.name for p in baseline.iterdir()
                   if p.suffix in (".csv", ".json"))
    for name in names:
        if (baseline / name).read_bytes() != (repeat / name).read_bytes():
            mismatched.append(name)
    ok = not mismatched and len(names) >= 19
    announce(capsys, 9, f"determinism ({len(names)} files byte-compared)", ok)
    assert not mismatched, f"files differ: {mismatched}"
    assert len(names) >= 19
