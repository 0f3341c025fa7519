"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured numbers.

Criterion 7 is split into its collapse/capture half and its density-mode
robustness half; the robustness half fails by design of an honest density
mode selector against equal-value collusion (see the project notes), and is
asserted at its stated bound anyway rather than weakened.
"""

import itertools
import json
import math
import time

import numpy as np

from fedfft import oracles
from fedfft.adversary import (
    ATTACK_MIN_MAX,
    ATTACK_RANDOM_WEIGHTS,
    AttackSpec,
    apply_attack,
    min_max_craft,
)
from fedfft.aggregators import KrumParam, krum_select, trimmed_mean
from fedfft.cli import main as cli_main
from fedfft.detector import (
    DECISION_FEDAVG,
    DECISION_FFT,
    DetectorConfig,
    dynamic_aggregate,
    ks_statistic,
    _kolmogorov_sf,
)
from fedfft.fedsim import (
    AggregatorSpec,
    MlpModel,
    SyntheticTask,
    TrainConfig,
    attacker_ids_for,
    run_experiment,
)
from fedfft.fft_aggregator import FftStrategy
from fedfft.spectral import fft
from fedfft.tensors import ClientUpdate, ModelWeights


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def updates_from_matrix(mat, size=1):
    return [
        ClientUpdate(k, ModelWeights([row]), size)
        for k, row in enumerate(np.asarray(mat, float))
    ]


def test_criterion_01_fft_matches_naive_dft():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    # every fold here and below is np.maximum, which keeps a NaN case's NaN:
    # Python's max(0.0, nan) is 0.0, and would pass it
    worst = 0.0
    for n in range(1, 301):
        inputs = rng.normal(size=(20, n))
        for x, want in zip(inputs, oracles.dft_naive(inputs)):
            worst = np.maximum(worst, np.max(np.abs(fft(x) - want)))
    elapsed = time.perf_counter() - started
    report(
        "criterion 1 (fft vs naive dft)",
        worst < 1e-9 and elapsed < 10.0,
        f"max per-bin error {worst:.3e} (< 1e-9), runtime {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_ks_statistic_exhaustive_and_series_value():
    multisets = [
        np.array(combo, dtype=float)
        for size in range(1, 9)
        for combo in itertools.combinations_with_replacement(range(5), size)
    ]
    ecdfs = np.stack([
        np.array([np.mean(s <= t) for t in range(5)]) for s in multisets
    ])
    mismatches = 0
    for i in range(len(multisets)):
        brute_row = np.max(np.abs(ecdfs[i][None, :] - ecdfs[i:]), axis=1)
        for offset, j in enumerate(range(i, len(multisets))):
            if ks_statistic(multisets[i], multisets[j]) != brute_row[offset]:
                mismatches += 1
    series = oracles.kolmogorov_series(1.358)
    q = _kolmogorov_sf(1.358)
    ok = mismatches == 0 and abs(q - 0.050) <= 0.002 and abs(q - series) < 1e-9
    report(
        "criterion 2 (ks statistic + p-value series)",
        ok,
        f"{mismatches} mismatches over {len(multisets)} multisets paired; Q(1.358)={q:.4f}",
    )


def test_criterion_03_krum_and_trimmed_mean_oracles():
    rng = np.random.default_rng(3)
    krum_bad = 0
    for _ in range(1000):
        k = int(rng.integers(4, 8))
        f = int(rng.integers(0, k - 3 + 1))
        vals = rng.normal(size=(k, int(rng.integers(1, 5))))
        if krum_select(updates_from_matrix(vals), KrumParam(f)) != int(np.argmin(oracles.krum_scores(vals, f))):
            krum_bad += 1

    trim_bad = 0
    for _ in range(1000):
        k = int(rng.integers(3, 15))
        n = int(rng.integers(0, (k - 1) // 2 + 1))
        vals = rng.normal(size=(k, 1))
        got = trimmed_mean(updates_from_matrix(vals), n).layers[0][0]
        want = float(np.mean(np.sort(vals[:, 0])[n : k - n]))
        if abs(got - want) > 1e-12:
            trim_bad += 1
    report(
        "criterion 3 (krum + trimmed mean oracles)",
        krum_bad == 0 and trim_bad == 0,
        f"krum mismatches {krum_bad}/1000, trimmed-mean mismatches {trim_bad}/1000",
    )


def test_criterion_04_minmax_gamma_oracle():
    rng = np.random.default_rng(4)
    worst_rel = 0.0
    worst_residual = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 3))
        pts = rng.normal(size=(m, dim)) * rng.uniform(0.2, 5.0)
        res = min_max_craft([ModelWeights([p]) for p in pts])
        diameter = oracles.diameter(pts)
        worst = np.max([np.linalg.norm(res.crafted.flat() - p) for p in pts])
        worst_residual = np.maximum(worst_residual, (worst - diameter) / (1.0 + diameter))
        # the feasible gamma always lies below the diameter, so the 1e5-point
        # grid covers [0, diameter]; its own quantum is one step
        best = oracles.min_max_gamma_grid(pts, res.perturbation_vec.flat(), diameter)
        step = diameter / 99_999
        if best != 0:  # not best > 0, which would skip a NaN
            worst_rel = np.maximum(worst_rel, np.maximum(0.0, abs(res.gamma - best) - step) / best)

    single = min_max_craft([ModelWeights([np.array([1.0, 2.0])])])
    dup = min_max_craft([ModelWeights([np.array([3.0])])] * 4)
    ok = (
        worst_rel < 1e-4
        and worst_residual <= 1e-6
        and single.gamma == 0.0
        and dup.gamma == 0.0
    )
    report(
        "criterion 4 (min-max gamma search)",
        ok,
        f"grid-search rel err {worst_rel:.2e} (< 1e-4), residual {worst_residual:.2e},"
        f" degenerate gammas {single.gamma}, {dup.gamma}",
    )


def test_criterion_05_gradient_check_100_seeds():
    model = MlpModel(dim=4, hidden=5, classes=3)
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng([5, seed])
        weights = ModelWeights([
            rng.normal(0.0, 0.5, (4, 5)),
            rng.normal(0.0, 0.1, 5),
            rng.normal(0.0, 0.5, (5, 3)),
            rng.normal(0.0, 0.1, 3),
        ])
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, 8)
        worst = np.maximum(worst, oracles.grad_check(model, weights, x, y))
    report(
        "criterion 5 (gradient check)",
        worst < 1e-5,
        f"max relative error {worst:.2e} over 100 seeds (< 1e-5)",
    )


def _final_accuracy_mean(task, aggregator, attack, base_seed, repeats=5, **train_kw):
    finals = []
    for r in range(repeats):
        cfg = TrainConfig(aggregator=aggregator, attack=attack, seed=base_seed + r, **train_kw)
        finals.append(run_experiment(cfg, task)[-1].global_accuracy)
    return float(np.mean(finals))


def test_criterion_06_random_weights_desk_scale():
    started = time.perf_counter()
    task = SyntheticTask(seed=0)
    none = AttackSpec()
    random40 = AttackSpec(kind=ATTACK_RANDOM_WEIGHTS, attacker_fraction=0.4)
    fedavg = AggregatorSpec(kind="fedavg")
    fft_kde = AggregatorSpec(kind="fft")

    fa_clean = _final_accuracy_mean(task, fedavg, none, 100)
    fa_attacked = _final_accuracy_mean(task, fedavg, random40, 100)
    fft_clean = _final_accuracy_mean(task, fft_kde, none, 100)
    fft_attacked = _final_accuracy_mean(task, fft_kde, random40, 100)
    elapsed = time.perf_counter() - started

    fa_drop = fa_clean - fa_attacked
    fft_drop = fft_clean - fft_attacked
    ok = fa_drop >= 0.20 and fft_drop <= 0.05 and elapsed < 180.0
    report(
        "criterion 6 (random-weights attack, desk scale)",
        ok,
        f"fedavg {fa_clean:.3f}->{fa_attacked:.3f} (drop {fa_drop:.3f} >= 0.20), "
        f"fft-kde {fft_clean:.3f}->{fft_attacked:.3f} (drop {fft_drop:.3f} <= 0.05), "
        f"runtime {elapsed:.0f}s (< 180s)",
    )


CRIT7_TASK = SyntheticTask(
    dim=8, classes=8, per_client=50, clients=20, dirichlet_alpha=0.1, noise_sigma=2.0, seed=0
)
CRIT7_TRAIN = dict(rounds=30, epochs=1, batch_size=2, learning_rate=0.3)
CRIT7_ATTACK = AttackSpec(kind=ATTACK_MIN_MAX, attacker_fraction=0.3)
CRIT7_SEED = 1002
CRIT7_CHANCE = 1.0 / CRIT7_TASK.classes


def test_criterion_07a_minmax_fedavg_collapse_and_krum_capture():
    cfg_fa = TrainConfig(
        aggregator=AggregatorSpec(kind="fedavg"), attack=CRIT7_ATTACK, seed=CRIT7_SEED, **CRIT7_TRAIN
    )
    fa_final = run_experiment(cfg_fa, CRIT7_TASK)[-1].global_accuracy

    cfg_krum = TrainConfig(
        aggregator=AggregatorSpec(kind="krum"), attack=CRIT7_ATTACK, seed=CRIT7_SEED, **CRIT7_TRAIN
    )
    attacker_ids = attacker_ids_for(cfg_krum, CRIT7_TASK)
    hits = []

    def hook(_rnd, updates, aggregated):
        hits.append(
            any(u.client_id in attacker_ids and u.weights == aggregated for u in updates)
        )

    run_experiment(cfg_krum, CRIT7_TASK, round_hook=hook)
    captured = sum(hits)
    bound = CRIT7_CHANCE + 0.15
    ok = fa_final <= bound and captured >= math.ceil(0.9 * len(hits))
    report(
        "criterion 7 (min-max: fedavg collapse + krum capture)",
        ok,
        f"fedavg final {fa_final:.3f} (<= {bound:.3f}), "
        f"krum selected malicious {captured}/{len(hits)} rounds (>= 27)",
    )


def test_criterion_07b_minmax_fft_kde_robustness():
    # Thin margin by nature: the colluders' bit-identical submissions form a
    # real density atom that the diameter constraint keeps inside the benign
    # spread, so a mode seeker partially tracks it. The gap stays within the
    # bound at this frozen scenario; see README "Robustness notes".
    agg = AggregatorSpec(kind="fft")
    clean = run_experiment(
        TrainConfig(aggregator=agg, seed=CRIT7_SEED, **CRIT7_TRAIN), CRIT7_TASK
    )[-1].global_accuracy
    attacked = run_experiment(
        TrainConfig(aggregator=agg, attack=CRIT7_ATTACK, seed=CRIT7_SEED, **CRIT7_TRAIN),
        CRIT7_TASK,
    )[-1].global_accuracy
    gap = abs(clean - attacked)
    report(
        "criterion 7 (min-max: fft-kde within 0.08 of clean)",
        gap <= 0.08,
        f"fft-kde clean {clean:.3f} vs attacked {attacked:.3f}, gap {gap:.3f} (<= 0.08)",
    )


def test_criterion_08_krum_collusion_enumeration():
    failures = 0
    cases = 0
    for K in range(4, 11):
        for f in range(0, K - 2):
            if K - f - 2 < 1:
                continue
            for M in range(max(1, K - f - 1), K + 1):
                cases += 1
                mal = np.full(3, 10.0)
                rows = [mal.copy() for _ in range(M)]
                rows += [np.full(3, 0.1 * (b + 1)) for b in range(K - M)]
                ups = updates_from_matrix(rows)
                picked = krum_select(ups, KrumParam(f))
                if not np.array_equal(ups[picked].weights.layers[0], mal):
                    failures += 1
    report(
        "criterion 8 (krum collusion enumeration)",
        failures == 0,
        f"{failures} failures over {cases} (K, f, M) cases with M >= K-f-1",
    )


def _detector_trial_updates(trial_seed: int, attacked: bool):
    rng = np.random.default_rng([9, trial_seed])
    base = rng.normal(0.0, 0.5, 100)
    ups = [
        ClientUpdate(k, ModelWeights([base + rng.normal(0.0, 0.01, 100)]), 160)
        for k in range(20)
    ]
    if attacked:
        spec = AttackSpec(kind=ATTACK_RANDOM_WEIGHTS, attacker_fraction=0.3)
        ups = apply_attack(ups, spec, set(range(6)), np.random.default_rng([9, trial_seed, 1]))
    return ups


def test_criterion_09_detector_operating_characteristics():
    cfg = DetectorConfig()  # C=10, S=5, reject 0.05, threshold 0.02, deviation frequency
    benign_fedavg = 0
    attacked_fft = 0
    for trial in range(100):
        _, decision, _ = dynamic_aggregate(
            _detector_trial_updates(trial, False), cfg, FftStrategy(), seed=trial
        )
        benign_fedavg += decision == DECISION_FEDAVG
        _, decision, _ = dynamic_aggregate(
            _detector_trial_updates(trial, True), cfg, FftStrategy(), seed=trial
        )
        attacked_fft += decision == DECISION_FFT
    ok = benign_fedavg >= 95 and attacked_fft >= 95
    report(
        "criterion 9 (detector operating characteristics)",
        ok,
        f"benign -> fedavg {benign_fedavg}/100 (>= 95), attacked -> fft {attacked_fft}/100 (>= 95)",
    )


def test_criterion_10_sudden_attack_switch():
    cfg = TrainConfig(
        rounds=20,
        aggregator=AggregatorSpec(kind="dynamic"),
        attack=AttackSpec(kind=ATTACK_RANDOM_WEIGHTS, attacker_fraction=0.3, start_round=11),
        seed=42,
    )
    records = run_experiment(cfg, SyntheticTask(seed=0))
    first = sum(r.decision == DECISION_FEDAVG for r in records[:10])
    last = sum(r.decision == DECISION_FFT for r in records[10:])
    ok = first >= 9 and last >= 9
    report(
        "criterion 10 (sudden-attack switch)",
        ok,
        f"rounds 1-10 fedavg {first}/10 (>= 9), rounds 11-20 fft {last}/10 (>= 9)",
    )


def test_criterion_11_byte_identical_csv_over_reruns(tmp_path):
    config = {
        "task": {"clients": 6, "per_client": 30, "dim": 4, "classes": 2, "seed": 2},
        "train": {
            "rounds": 3,
            "epochs": 1,
            "seed": 11,
            "aggregator": {"kind": "dynamic", "detector": {"subset_size": 2}},
            "attack": {"kind": "random_weights", "attacker_fraction": 0.34},
        },
        "repeats": 3,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    blobs = []
    for rerun in range(6):
        out = tmp_path / f"run{rerun}"
        assert cli_main(["run", str(config_path), "--out-dir", str(out)]) == 0
        blobs.append((out / "rounds.csv").read_bytes())
    diverging = [f"run {i}" for i, blob in enumerate(blobs) if blob != blobs[0]]
    report(
        "criterion 11 (deterministic csv over six reruns)",
        not diverging,
        f"6 runs compared byte-for-byte; diverging: {diverging or 'none'}",
    )
