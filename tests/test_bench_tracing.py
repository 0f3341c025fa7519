"""The traced benchmark wraps fedfft functions by name; a rename must fail here."""

import os
import sys

import numpy as np

from fedfft import adversary, aggregators, detector, fedsim, fft_aggregator, spectral, tensors

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# every function the tracer times or counts, in the module that defines it
WRAPPED = [
    (fedsim, "gen_task"),
    (fedsim, "local_update"),
    (tensors, "layer_matrices"),
    (adversary, "apply_attack"),
    (adversary, "min_max_craft"),
    (aggregators, "fed_avg"),
    (aggregators, "coordinate_median"),
    (aggregators, "trimmed_mean"),
    (aggregators, "krum"),
    (detector, "mal_test"),
    (detector, "dynamic_aggregate"),
    (fft_aggregator, "fft_aggregate"),
    (spectral, "fft"),
]
METHODS = [(fedsim.MlpModel, "evaluate"), (tensors.ModelWeights, "__init__")]


def fedfft_bindings() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "fedfft" or name.startswith("fedfft.")
        for attr, value in vars(module).items()
    }


def test_tracer_installs_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    from tracing import Tracer

    before = fedfft_bindings()
    methods = [cls.__dict__[attr] for cls, attr in METHODS]
    tracer = Tracer()
    tracer.install()
    try:
        for module, attr in WRAPPED:
            assert getattr(module, attr) is not before[(module.__name__, attr)], attr
        for (cls, attr), original in zip(METHODS, methods):
            assert cls.__dict__[attr] is not original, attr
        w = tensors.ModelWeights([np.ones(2)])
        tensors.layer_matrices([tensors.ClientUpdate(0, w, 1)])
        calls = tracer.totals()[2]
        assert calls["tensors.ModelWeights"] == 1 and calls["tensors.layer_matrices"] == 1
    finally:
        tracer.uninstall()
    after = fedfft_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert [cls.__dict__[attr] for cls, attr in METHODS] == methods


def test_one_attack_span_per_attacked_round(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    from tracing import Tracer

    cfg = fedsim.TrainConfig(
        rounds=5,
        aggregator=fedsim.AggregatorSpec(kind="median"),
        attack=adversary.AttackSpec(
            kind=adversary.ATTACK_RANDOM_WEIGHTS, attacker_fraction=0.4, start_round=3
        ),
    )
    tracer = Tracer()
    tracer.install()
    try:
        tracer.round = 1

        def hook(rnd, _updates, _weights):
            tracer.round = rnd + 1

        fedsim.run_experiment(cfg, fedsim.SyntheticTask(clients=5, per_client=20), hook)
    finally:
        tracer.uninstall()
    rounds = [span[4] for span in tracer.spans if span[0] == "adversary.apply_attack"]
    assert rounds == [3, 4, 5]
