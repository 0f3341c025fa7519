"""The three workloads of the fedfft benchmark.

Each workload builds its inputs from the seed through the library's public
API, then repeats a fixed unit of work (a "pass"): a whole simulated
experiment for the two ``sim-*`` workloads, and every update set through
every aggregation rule for ``server-mixed``. A pass is split into rounds,
and every round is timed and checked. Checks run outside the timed spans.

* ``sim-onset``: the paper's scenario. The dynamic rule under 40 %
  random-weights attackers that switch on at round 11.
* ``sim-minmax-wide``: a wide model against Krum under min-max colluders. It
  never reaches the detector or the density rule.
* ``server-mixed``: aggregation only, K=50, with clean, random, min-max and
  outlier update sets through all seven rules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from fedfft import adversary, aggregators, detector, fedsim, fft_aggregator, spectral
from fedfft.adversary import AttackSpec
from fedfft.fedsim import AggregatorSpec, ClientData, SyntheticTask, TrainConfig
from fedfft.tensors import ClientUpdate, ModelWeights
from speed import calibrate, clock, corrected

CLEAN = "clean"
ATTACKED = "attacked"

# relative tolerance for the rules checked against a direct numpy computation
REL_TOL = 1e-12
# coordinate columns kept for the spectral micro-timings
SAMPLE_COLUMNS = 48
# spectral.fft calls timed per kept column
FFT_REPEATS = 5


@dataclass
class Tally:
    """Everything a run measured and checked, summed over its passes."""

    rounds: list[tuple[str, float]] = field(default_factory=list)  # (phase, seconds)
    intervals: list[tuple[float, float]] = field(default_factory=list)  # timed stretches of rounds
    passes: list[float] = field(default_factory=list)  # seconds per pass
    raw_passes: list[float] = field(default_factory=list)  # uncorrected CPU seconds per pass
    calibrations: list[float] = field(default_factory=list)  # speed.calibrate() seconds
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)  # outputs that failed a check
    errors: list[str] = field(default_factory=list)  # calls that raised
    accuracy: dict[Any, float] = field(default_factory=dict)  # per input
    switch_hits: int = 0
    switch_total: int = 0
    attacker_coords: int = 0
    selected_coords: int = 0
    columns: list[np.ndarray] = field(default_factory=list)
    fingerprints: dict[Any, Any] = field(default_factory=dict)

    def fail(self, what: str, wrong: bool = True) -> None:
        self.failed += 1
        (self.wrong if wrong else self.errors).append(what)

    def remember(self, key: Any, value: Any, what: str) -> bool:
        """Determinism check: a repeated input must give the identical result."""
        seen = self.fingerprints.setdefault(key, value)
        if seen != value:
            self.wrong.append(f"{what}: differs from an earlier pass on the same input")
            return False
        return True


def digest(weights: ModelWeights) -> str:
    h = hashlib.sha1()
    for layer in weights.layers:
        h.update(layer.tobytes())
    return h.hexdigest()


def _stack(updates) -> np.ndarray:
    return np.stack([u.weights.flat() for u in updates])


def _finite(weights: ModelWeights) -> bool:
    return all(bool(np.isfinite(a).all()) for a in weights.layers)


def _close(got: np.ndarray, want: np.ndarray, mat: np.ndarray) -> bool:
    # relative to each coordinate's largest client value, so that columns
    # whose mean cancels are not held to an impossible tolerance
    scale = np.maximum(np.abs(mat).max(axis=0), np.finfo(float).tiny)
    return bool(np.all(np.abs(got - want) <= REL_TOL * scale))


def direct_mean(mat: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    return (sizes[:, None] * mat).sum(axis=0) / sizes.sum()


def direct_median(mat: np.ndarray) -> np.ndarray:
    s = np.sort(mat, axis=0)
    k = s.shape[0]
    return s[k // 2] if k % 2 else 0.5 * (s[k // 2 - 1] + s[k // 2])


def direct_trimmed(mat: np.ndarray, n: int) -> np.ndarray:
    s = np.sort(mat, axis=0)
    return s[n : s.shape[0] - n].mean(axis=0)


def in_support(out: np.ndarray, mat: np.ndarray) -> bool:
    """Every coordinate of ``out`` is a value some client sent there."""
    return bool((mat == out[None, :]).any(axis=0).all())


def attacker_share(out: np.ndarray, mat: np.ndarray, rows: list[int]) -> int:
    """Coordinates at which ``out`` equals a value an attacker sent."""
    return int((mat[rows] == out[None, :]).any(axis=0).sum())


def keep_columns(tally: Tally, mat: np.ndarray) -> None:
    if tally.columns:
        return
    picks = np.linspace(0, mat.shape[1] - 1, min(SAMPLE_COLUMNS, mat.shape[1])).astype(int)
    tally.columns = [mat[:, j].copy() for j in picks]


# ---------------------------------------------------------------------------
# simulation workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimWorkload:
    """Repeated ``run_experiment`` calls on tasks drawn from the seed.

    Passes cycle over ``input_seeds`` tasks derived from the seed, so one run
    averages over several data sets, and every task that comes round again
    is checked to reproduce its first pass exactly.
    """

    name: str
    task: SyntheticTask
    cfg: TrainConfig
    input_seeds: int
    tail_pct: int

    def seeds_for(self, seed: int) -> list[int]:
        return [seed * self.input_seeds + i for i in range(self.input_seeds)]

    def setup(self, seed: int) -> list[int]:
        # run_experiment regenerates its task on every pass; setup time is
        # the generation of every task a run will use
        for s in self.seeds_for(seed):
            fedsim.gen_task(replace(self.task, seed=s))
        return self.seeds_for(seed)

    def run_pass(self, inputs: list[int], index: int, tally: Tally, tracer=None) -> None:
        s = inputs[index % len(inputs)]
        task = replace(self.task, seed=s)
        cfg = replace(self.cfg, seed=s)
        attackers = sorted(fedsim.attacker_ids_for(cfg, task))
        start_round = cfg.attack.start_round
        kind = cfg.aggregator.kind
        marks: list[tuple[float, float]] = []  # (entered, left) of each round's hook
        checks: list[dict] = []
        # calibrations[r] is taken after round r; calibrations[0] before the pass
        calibrations = [calibrate()]

        gen_task = fedsim.gen_task

        def stamped_gen_task(t):
            data = gen_task(t)
            if tracer is not None:
                tracer.round = (index, 1)
            now = clock()
            marks.append((now, now))  # round 1 starts when the task is ready
            return data

        def hook(rnd, updates, weights):
            entered = clock()
            checks.append(self._check_round(rnd, updates, weights, attackers, start_round, kind, tally))
            calibrations.append(calibrate())
            if tracer is not None:
                tracer.round = (index, rnd + 1)
            left = clock()
            marks.append((entered, left))

        fedsim.gen_task = stamped_gen_task
        if tracer is not None:
            tracer.round = (index, 0)
        began = clock()
        try:
            records = fedsim.run_experiment(cfg, task, hook)
        except Exception as exc:  # a crashed pass is counted, and the run goes on
            tally.attempted += cfg.rounds
            tally.failed += cfg.rounds
            tally.errors.append(f"{self.name} seed {s}: {type(exc).__name__}: {exc}")
            return
        finally:
            fedsim.gen_task = gen_task
        ended = clock()

        # the task generation before round 1 and the return after the last
        # round belong to the pass; the hooks do not
        first_cal, last_cal = calibrations[0], calibrations[-1]
        raw = (marks[0][1] - began) + (ended - marks[-1][1])
        pass_seconds = corrected(marks[0][1] - began, first_cal, first_cal) + corrected(
            ended - marks[-1][1], last_cal, last_cal
        )
        for rnd, ((_, start), (end, _)) in enumerate(zip(marks, marks[1:]), start=1):
            seconds = corrected(end - start, calibrations[rnd - 1], calibrations[rnd])
            tally.rounds.append((ATTACKED if rnd >= start_round else CLEAN, seconds))
            tally.intervals.append((start, end))
            raw += end - start
            pass_seconds += seconds
        tally.passes.append(pass_seconds)
        tally.raw_passes.append(raw)
        tally.calibrations.extend(calibrations)

        tally.attempted += cfg.rounds
        # quality counts once per input, so they do not depend on how many
        # passes the machine's speed allowed
        first = s not in tally.accuracy
        bad_rounds = set()
        for rec, chk in zip(records, checks):
            attacked = rec.round >= start_round
            if kind == "dynamic":
                hit = (rec.decision == detector.DECISION_FFT) == attacked
                robust = rec.decision == detector.DECISION_FFT
                ok = chk["in_support"] if robust else chk["is_mean"]
            else:  # krum: right when it picks a client, and an honest one once the attack is on
                robust = True
                ok = chk["is_client"]
                hit = ok and not (attacked and chk["picked_attacker"])
            if first:
                tally.switch_hits += hit
                tally.switch_total += 1
                if robust and attacked:
                    tally.attacker_coords += chk["attacker_coords"]
                    tally.selected_coords += chk["coords"]
            if not (ok and chk["finite"]):
                bad_rounds.add(rec.round)
                tally.wrong.append(f"{self.name} seed {s} round {rec.round}: output check failed")
        fingerprint = [
            (r.decision, r.detector_score, r.global_accuracy, r.global_loss, c["digest"])
            for r, c in zip(records, checks)
        ]
        if not tally.remember((self.name, s), fingerprint, f"{self.name} seed {s}"):
            bad_rounds.update(range(1, cfg.rounds + 1))
        tally.failed += len(bad_rounds)
        tally.accuracy[s] = records[-1].global_accuracy

    @staticmethod
    def _check_round(rnd, updates, weights, attackers, start_round, kind, tally) -> dict:
        mat = _stack(updates)
        out = weights.flat()
        chk = {"finite": _finite(weights), "digest": digest(weights), "coords": out.size}
        if kind == "dynamic":
            sizes = np.array([float(u.dataset_size) for u in updates])
            chk["is_mean"] = _close(out, direct_mean(mat, sizes), mat)
            chk["in_support"] = in_support(out, mat)
        else:
            picked = set(np.flatnonzero((mat == out[None, :]).all(axis=1)).tolist())
            chk["is_client"] = bool(picked)
            chk["picked_attacker"] = bool(picked & set(attackers))
        if rnd >= start_round and attackers:
            chk["attacker_coords"] = attacker_share(out, mat, attackers)
            keep_columns(tally, mat)
        return chk


SIM_ONSET = SimWorkload(
    name="sim-onset",
    task=SyntheticTask(noise_sigma=1.0),
    cfg=TrainConfig(
        rounds=30,
        aggregator=AggregatorSpec(kind="dynamic"),
        attack=AttackSpec(
            kind=adversary.ATTACK_RANDOM_WEIGHTS, attacker_fraction=0.4, start_round=11
        ),
    ),
    input_seeds=6,
    tail_pct=90,
)

SIM_MINMAX_WIDE = SimWorkload(
    name="sim-minmax-wide",
    task=SyntheticTask(dim=64, clients=50, noise_sigma=1.5),
    cfg=TrainConfig(
        rounds=12,
        hidden=256,
        aggregator=AggregatorSpec(kind="krum"),
        attack=AttackSpec(
            kind=adversary.ATTACK_MIN_MAX,
            perturbation=adversary.INVERSE_UNIT_VECTOR,
            attacker_fraction=0.4,
            start_round=4,
        ),
    ),
    input_seeds=2,
    tail_pct=80,
)


# ---------------------------------------------------------------------------
# aggregation-only workload
# ---------------------------------------------------------------------------

SETS = ("clean", "random", "minmax", "outlier")
# local training of the honest clients, as in the simulation defaults
BATCH = 32
LEARNING_RATE = 0.05
LOCAL_EPOCHS = 2
# SGD steps of the global model before the round: partly trained, as a few rounds in
REFERENCE_STEPS = 20
# the outlier client: 1e3 on 1 % of the coordinates, and 1e150 on one more
OUTLIER_SHARE = 0.01
OUTLIER_VALUE = 1e3
EXTREME_VALUE = 1e150
RULES = ("fed_avg", "coordinate_median", "trimmed_mean", "krum", "kde", "literal", "dynamic")


@dataclass(frozen=True)
class ServerInputs:
    sets: dict[str, list[ClientUpdate]]
    attackers: list[int]
    f: int
    seed: int
    model: fedsim.MlpModel
    test_x: np.ndarray
    test_y: np.ndarray


@dataclass(frozen=True)
class ServerWorkload:
    """Every update set through every rule; a round is one set through all rules."""

    name: str
    dim: int
    hidden: int
    classes: int
    clients: int
    attackers: int
    per_client: int
    tail_pct: int
    input_seeds: int = 2

    def setup(self, seed: int) -> list[ServerInputs]:
        return [self.build(seed * self.input_seeds + i) for i in range(self.input_seeds)]

    def build(self, seed: int) -> ServerInputs:
        task = SyntheticTask(
            dim=self.dim, classes=self.classes, per_client=self.per_client,
            clients=self.clients, noise_sigma=1.0, seed=seed,
        )
        data = fedsim.gen_task(task)
        model = fedsim.MlpModel(dim=self.dim, hidden=self.hidden, classes=self.classes)
        rng = lambda *key: np.random.default_rng([seed, *key])  # noqa: E731
        n = REFERENCE_STEPS * BATCH
        pooled = ClientData(
            train_x=np.concatenate([c.train_x for c in data.clients])[:n],
            train_y=np.concatenate([c.train_y for c in data.clients])[:n],
            test_x=data.global_test_x,
            test_y=data.global_test_y,
        )
        reference = fedsim.local_update(
            model, model.init_weights(seed), pooled, 1, BATCH, LEARNING_RATE, rng(1)
        ).weights
        clean = [
            fedsim.local_update(
                model, reference, data.clients[k], LOCAL_EPOCHS, BATCH, LEARNING_RATE, rng(2, k),
                client_id=k,
            )
            for k in range(self.clients)
        ]
        attackers = sorted(rng(3).choice(self.clients, size=self.attackers, replace=False).tolist())

        def replaced(new: dict[int, ModelWeights]) -> list[ClientUpdate]:
            return [
                ClientUpdate(u.client_id, new[u.client_id], u.dataset_size) if u.client_id in new else u
                for u in clean
            ]

        random_set = replaced({k: adversary.random_weights(reference, rng(4, k)) for k in attackers})
        crafted = adversary.min_max_craft([clean[k].weights for k in attackers]).crafted
        minmax_set = replaced({k: crafted for k in attackers})

        flat = clean[attackers[0]].weights.flat().copy()
        count = max(1, round(OUTLIER_SHARE * flat.size))
        coords = rng(5).choice(flat.size, size=count + 1, replace=False)
        flat[coords[:count]] = OUTLIER_VALUE
        flat[coords[count]] = EXTREME_VALUE
        outlier_set = replaced({attackers[0]: clean[attackers[0]].weights.with_flat(flat)})

        return ServerInputs(
            sets={"clean": clean, "random": random_set, "minmax": minmax_set, "outlier": outlier_set},
            attackers=attackers,
            f=self.attackers,
            seed=seed,
            model=model,
            test_x=data.global_test_x,
            test_y=data.global_test_y,
        )

    @staticmethod
    def rules(inputs: ServerInputs) -> dict[str, Callable]:
        # looked up on the modules at call time, so the tracer's wrappers apply
        f = inputs.f
        return {
            "fed_avg": lambda u: aggregators.fed_avg(u),
            "coordinate_median": lambda u: aggregators.coordinate_median(u),
            "trimmed_mean": lambda u: aggregators.trimmed_mean(u, aggregators.TrimParam(f)),
            "krum": lambda u: aggregators.krum(u, aggregators.KrumParam(f)),
            "kde": lambda u: fft_aggregator.fft_aggregate(u, fft_aggregator.FftStrategy()),
            "literal": lambda u: fft_aggregator.fft_aggregate(
                u, fft_aggregator.FftStrategy(kind=fft_aggregator.LITERAL)
            ),
            "dynamic": lambda u: detector.dynamic_aggregate(
                u, detector.DetectorConfig(), fft_aggregator.FftStrategy(), inputs.seed
            ),
        }

    def run_pass(self, inputs: list[ServerInputs], index: int, tally: Tally, tracer=None) -> None:
        first = index < len(inputs)
        inputs = inputs[index % len(inputs)]
        rules = self.rules(inputs)
        pass_seconds = raw = 0.0
        for set_name in SETS:
            updates = inputs.sets[set_name]
            if tracer is not None:
                tracer.round = (index, set_name)
            outputs: dict[str, Any] = {}
            # a round is seconds long, so each rule call is corrected by the
            # calibrations right around it
            calibrations = [calibrate()]
            round_seconds = 0.0
            for rule in RULES:
                began = clock()
                try:
                    outputs[rule] = rules[rule](updates)
                except Exception as exc:  # a raising rule is a failed call
                    outputs[rule] = exc
                ended = clock()
                calibrations.append(calibrate())
                round_seconds += corrected(ended - began, calibrations[-2], calibrations[-1])
                raw += ended - began
                tally.intervals.append((began, ended))
            pass_seconds += round_seconds
            tally.rounds.append((CLEAN if set_name == "clean" else ATTACKED, round_seconds))
            tally.calibrations.extend(calibrations)
            self._check_set(set_name, updates, outputs, inputs, first, tally)
        tally.passes.append(pass_seconds)
        tally.raw_passes.append(raw)

    def _check_set(self, set_name, updates, outputs, inputs, first, tally) -> None:
        mat = _stack(updates)
        sizes = np.array([float(u.dataset_size) for u in updates])
        expected_decision = detector.DECISION_FEDAVG if set_name == "clean" else detector.DECISION_FFT
        for rule in RULES:
            tally.attempted += 1
            result = outputs[rule]
            where = f"{rule} on {set_name}"
            if isinstance(result, Exception):
                tally.fail(f"{where}: {type(result).__name__}: {result}", wrong=False)
                continue
            decision = score = None
            if rule == "dynamic":
                result, decision, score = result
            out = result.flat()
            if rule == "fed_avg":
                ok = _close(out, direct_mean(mat, sizes), mat)
            elif rule == "coordinate_median":
                ok = _close(out, direct_median(mat), mat)
            elif rule == "trimmed_mean":
                ok = _close(out, direct_trimmed(mat, inputs.f), mat)
            elif rule == "krum":
                ok = bool((mat == out[None, :]).all(axis=1).any())
            elif rule in ("kde", "literal"):
                ok = in_support(out, mat)
            else:
                twin = outputs["fed_avg" if decision == detector.DECISION_FEDAVG else "kde"]
                if isinstance(twin, Exception):
                    ok = decision == detector.DECISION_FFT and in_support(out, mat)
                else:
                    ok = np.array_equal(out, twin.flat())
                if first:
                    tally.switch_hits += decision == expected_decision
                    tally.switch_total += 1
                    # forward, not MlpModel.evaluate: the server never evaluates,
                    # so this check must not show up in the traced fedsim.evaluate
                    _, probs = inputs.model.forward(result, inputs.test_x)
                    acc = float(np.mean(probs.argmax(axis=1) == inputs.test_y))
                    tally.accuracy[(inputs.seed, set_name)] = acc
            ok = ok and _finite(result)
            key = (inputs.seed, set_name, rule)
            if not tally.remember(key, (digest(result), decision, score), where):
                ok = False
            if not ok:
                tally.fail(f"{where}: output check failed")
                continue
            if rule == "kde" and set_name in ("random", "minmax") and first:
                tally.attacker_coords += attacker_share(out, mat, inputs.attackers)
                tally.selected_coords += out.size
                if set_name == "minmax":
                    keep_columns(tally, mat[:, ~np.all(mat == mat[:1], axis=0)])


SERVER_MIXED = ServerWorkload(
    name="server-mixed", dim=16, hidden=32, classes=4, clients=50, attackers=10,
    per_client=200, tail_pct=90,
)

WORKLOADS = {w.name: w for w in (SIM_ONSET, SIM_MINMAX_WIDE, SERVER_MIXED)}

# a tiny configuration of each workload, for the smoke check
TINY = {
    "sim-onset": replace(
        SIM_ONSET,
        task=replace(SIM_ONSET.task, clients=8, per_client=40),
        cfg=replace(SIM_ONSET.cfg, rounds=4, attack=replace(SIM_ONSET.cfg.attack, start_round=3)),
        input_seeds=1,
    ),
    "sim-minmax-wide": replace(
        SIM_MINMAX_WIDE,
        task=replace(SIM_MINMAX_WIDE.task, dim=8, clients=8, per_client=40),
        cfg=replace(
            SIM_MINMAX_WIDE.cfg,
            rounds=3,
            hidden=8,
            attack=replace(SIM_MINMAX_WIDE.cfg.attack, start_round=2),
        ),
        input_seeds=1,
    ),
    "server-mixed": replace(
        SERVER_MIXED, dim=4, hidden=8, classes=3, clients=12, attackers=2, per_client=40,
        input_seeds=1,
    ),
}


def spectral_timings(columns: list[np.ndarray]) -> tuple[float, float]:
    """Median microseconds of one ``spectral.fft`` and one ``kde_density`` call."""
    strategy = fft_aggregator.FftStrategy()
    fft_us, kde_us = [], []
    for col in columns:
        for _ in range(FFT_REPEATS):
            began = clock()
            spectral.fft(col)
            fft_us.append((clock() - began) * 1e6)
        if np.all(col == col[0]):
            continue
        began = clock()
        spectral.kde_density(
            col, strategy.grid_size, oversample=strategy.kde_oversample,
            max_fine_size=strategy.kde_max_fine,
        )
        kde_us.append((clock() - began) * 1e6)
    med = lambda xs: float(np.median(xs)) if xs else 0.0  # noqa: E731
    return med(fft_us), med(kde_us)
