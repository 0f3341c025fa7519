"""Desk-scale federated training: synthetic blob tasks, a small from-scratch
MLP with SGD, and the round loop tying clients, attacks, and aggregation
together.

Everything is deterministic given the config seeds. Every random draw comes
from a generator keyed on structured tuples like ``(seed, round, client)``,
so results do not depend on scheduling or worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import adversary
from .adversary import AttackSpec, apply_attack
from .aggregators import KrumParam, TrimParam, coordinate_median, fed_avg, krum, trimmed_mean
from .detector import DetectorConfig, dynamic_aggregate
from .fft_aggregator import FftStrategy, fft_aggregate
from .tensors import ClientUpdate, ModelWeights, layer_slices

DECISION_NA = "n/a"

_SALT_CENTERS = 101
_SALT_CLIENT_DATA = 202
_SALT_GLOBAL_TEST = 303
_SALT_INIT = 404
_SALT_ATTACKER_SET = 505
_SALT_ATTACK_RNG = 606

CENTER_RADIUS = 3.0
GLOBAL_TEST_SIZE = 1000
TRAIN_SPLIT = 0.8


@dataclass(frozen=True)
class SyntheticTask:
    """Gaussian-blob classification task sharded across clients.

    Class centers sit on a sphere of radius 3; samples are center plus
    isotropic noise. ``dirichlet_alpha`` of None means IID label
    assignment; a finite positive value skews each client's label mix by a
    Dirichlet draw.
    """

    dim: int = 8
    classes: int = 4
    per_client: int = 200
    clients: int = 20
    dirichlet_alpha: float | None = None
    noise_sigma: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.classes < 2:
            raise ValueError("need at least two classes")
        if self.per_client < self.classes:
            raise ValueError("per_client must be >= classes")
        if self.clients < 1:
            raise ValueError("need at least one client")
        if self.dirichlet_alpha is not None and not 0.0 < self.dirichlet_alpha < np.inf:
            raise ValueError("dirichlet_alpha must be null or a finite number > 0")
        if not self.noise_sigma >= 0.0:
            raise ValueError("noise_sigma must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class ClientData:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


@dataclass(frozen=True)
class TaskData:
    """Every client's shard, plus the global held-out test set.

    ``train_x`` (K, n, d) and ``train_y`` (K, n) are C-contiguous stacks of
    the training shards; each ``clients[k]`` holds views of row k of them and
    of test stacks of the same form, so every row has one copy.
    """

    clients: tuple[ClientData, ...]
    train_x: np.ndarray
    train_y: np.ndarray
    global_test_x: np.ndarray
    global_test_y: np.ndarray
    centers: np.ndarray


def gen_task(task: SyntheticTask) -> TaskData:
    """Generate all client shards and the global held-out test set."""
    rng = np.random.default_rng([task.seed, _SALT_CENTERS])
    dirs = rng.normal(size=(task.classes, task.dim))
    centers = CENTER_RADIUS * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)

    # client k draws its labels, then the noise of all its rows in one draw,
    # and writes both straight into the stacks, split at n_train
    K, n_train = task.clients, int(TRAIN_SPLIT * task.per_client)
    n_test = task.per_client - n_train
    train_x, test_x = np.empty((K, n_train, task.dim)), np.empty((K, n_test, task.dim))
    train_y, test_y = np.empty((K, n_train), dtype=np.int64), np.empty((K, n_test), dtype=np.int64)
    for k in range(K):
        crng = np.random.default_rng([task.seed, _SALT_CLIENT_DATA, k])
        if task.dirichlet_alpha is None:
            y = crng.integers(0, task.classes, task.per_client)
        else:
            mix = crng.dirichlet(np.full(task.classes, task.dirichlet_alpha))
            y = crng.choice(task.classes, size=task.per_client, p=mix)
        x = crng.normal(0.0, task.noise_sigma, (task.per_client, task.dim))
        x += centers[y]
        train_x[k], test_x[k] = x[:n_train], x[n_train:]
        train_y[k], test_y[k] = y[:n_train], y[n_train:]
    shards = tuple(
        ClientData(train_x=train_x[k], train_y=train_y[k], test_x=test_x[k], test_y=test_y[k])
        for k in range(K)
    )

    grng = np.random.default_rng([task.seed, _SALT_GLOBAL_TEST])
    gy = grng.integers(0, task.classes, GLOBAL_TEST_SIZE)
    gx = centers[gy] + grng.normal(0.0, task.noise_sigma, (GLOBAL_TEST_SIZE, task.dim))
    return TaskData(
        clients=shards, train_x=train_x, train_y=train_y, global_test_x=gx, global_test_y=gy, centers=centers
    )


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MlpModel:
    """One-hidden-layer MLP: ReLU hidden units, softmax output.

    Weights are carried separately as ModelWeights in the layer order
    (W1, b1, W2, b2); this object only holds the architecture.
    """

    dim: int
    hidden: int = 16
    classes: int = 4

    def init_weights(self, seed: int) -> ModelWeights:
        """Glorot-normal kernels, zero biases."""
        rng = np.random.default_rng([seed, _SALT_INIT])
        w1 = rng.normal(0.0, np.sqrt(2.0 / (self.dim + self.hidden)), (self.dim, self.hidden))
        w2 = rng.normal(0.0, np.sqrt(2.0 / (self.hidden + self.classes)), (self.hidden, self.classes))
        return ModelWeights([w1, np.zeros(self.hidden), w2, np.zeros(self.classes)])

    def forward(self, weights: ModelWeights, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Hidden activations and softmax probabilities for a batch."""
        return self._forward(weights.layers, x)

    def gradients(self, weights: ModelWeights, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        """Mean cross-entropy gradients for a batch, in layer order."""
        return self._gradients(weights.layers, x, _one_hot(y, self.classes))

    # The layer-list forms below are the one implementation. They take either
    # one model's layers or (B, ...) stacks of them, with a (B, m, d) batch
    # per model; local SGD steps plain stacked arrays through them. Every
    # array they write lives in a _StepBuffers workspace: local SGD passes one
    # per client block, and without one they allocate a fresh workspace.

    @staticmethod
    def _forward(
        layers: Sequence[np.ndarray], x: np.ndarray, work: _StepBuffers | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        w1, b1, w2, b2 = layers
        m = x.shape[-2]
        work = _StepBuffers.new(layers, m) if work is None else work.rows(m)
        hidden = np.matmul(x, w1, out=work.hidden)
        hidden += b1[..., None, :]
        np.maximum(hidden, 0.0, out=hidden)
        probs = np.matmul(hidden, w2, out=work.logits)
        probs += b2[..., None, :]
        # the class-axis max, one column at a time: a max is exact in any
        # order, and a few calls on narrow views beat one reduce over C
        row_max = np.maximum(probs[..., :1], probs[..., -1:], out=work.row_max)
        for c in range(1, probs.shape[-1] - 1):
            np.maximum(row_max, probs[..., c : c + 1], out=row_max)
        probs -= row_max
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=-1, keepdims=True, out=work.row_sum)
        return hidden, probs

    def _gradients(
        self,
        layers: Sequence[np.ndarray],
        x: np.ndarray,
        onehot: np.ndarray,
        work: _StepBuffers | None = None,
    ) -> list[np.ndarray]:
        """The gradients for a batch whose labels are given as a bool
        ``onehot`` of the probabilities' shape."""
        w2 = layers[2]
        n = x.shape[-2]
        work = _StepBuffers.new(layers, n) if work is None else work.rows(n)
        hidden, dlogits = self._forward(layers, x, work)
        # subtracting 0.0 off the other columns leaves a probability as is
        dlogits -= onehot
        dlogits /= n
        gw1, gb1, gw2, gb2 = work.grads
        # the transposed operands stay strided views, so each slice of a
        # stacked product reaches BLAS in the same form as a one-model product
        # and the two agree bit for bit
        np.matmul(hidden.swapaxes(-1, -2), dlogits, out=gw2)
        dlogits.sum(axis=-2, out=gb2)
        dhidden = np.matmul(dlogits, w2.swapaxes(-1, -2), out=work.dhidden)
        _relu_backward(hidden, dhidden, work.dead, work.keep)
        np.matmul(x.swapaxes(-1, -2), dhidden, out=gw1)
        dhidden.sum(axis=-2, out=gb1)
        return work.grads

    def loss(self, weights: ModelWeights, x: np.ndarray, y: np.ndarray) -> float:
        return self.evaluate(weights, x, y)[1]

    def evaluate(self, weights: ModelWeights, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """(accuracy, mean cross-entropy) on a labeled set."""
        _, probs = self.forward(weights, x)
        acc = float(np.mean(probs.argmax(axis=1) == y))
        picked = probs[np.arange(x.shape[0]), y]
        return acc, float(-np.mean(np.log(np.maximum(picked, 1e-300))))


class _StepBuffers(NamedTuple):
    """Every array one step of :meth:`MlpModel._gradients` writes.

    The per-row arrays have room for n rows, the longest batch; a shorter
    batch of m rows works in :meth:`rows` views of their first m rows. Their
    leading axes, and those of ``grads`` (the four gradients in layer order),
    are those of the layers.
    """

    hidden: np.ndarray
    logits: np.ndarray  # softmax probabilities in place, then their gradient
    row_max: np.ndarray
    row_sum: np.ndarray
    dhidden: np.ndarray
    dead: np.ndarray  # bool, hidden <= 0.0
    keep: np.ndarray  # int64, 0 where dead and all bits set elsewhere
    grads: list[np.ndarray]

    @classmethod
    def new(cls, layers: Sequence[np.ndarray], n: int, grads: list | None = None) -> _StepBuffers:
        """A workspace for batches of up to n rows; ``grads`` defaults to fresh arrays."""
        w1, _, w2, _ = layers
        lead = w1.shape[:-2]
        units, rows = (*lead, n, w1.shape[-1]), (*lead, n, 1)
        return cls(
            np.empty(units),
            np.empty((*lead, n, w2.shape[-1])),
            np.empty(rows),
            np.empty(rows),
            np.empty(units),
            np.empty(units, dtype=bool),
            np.empty(units, dtype=np.int64),
            [np.empty_like(a) for a in layers] if grads is None else grads,
        )

    def rows(self, m: int) -> _StepBuffers:
        """The workspace of a batch of m rows: views of the first m rows."""
        if m == self.hidden.shape[-2]:
            return self
        return _StepBuffers(*(a[..., :m, :] for a in self[:-1]), self.grads)


def _relu_backward(hidden: np.ndarray, dhidden: np.ndarray, dead: np.ndarray, keep: np.ndarray) -> None:
    """Zero ``dhidden`` in place where ``hidden <= 0.0``, through scratch
    ``dead`` (bool) and ``keep`` (int64) of its shape.

    ANDing a value's bits with 0 gives +0.0, and with all bits set leaves
    the value as it is. So the bytes are those of selecting 0.0 where
    ``hidden <= 0.0`` and ``dhidden`` elsewhere: a NaN hidden keeps its
    gradient, and a -0.0, infinite or NaN gradient passes unchanged. A
    select or a masked assignment branches on a mask that is close to
    random; a multiply by the mask gives -0.0, and NaN from inf * 0.
    """
    np.less_equal(hidden, 0.0, out=dead)
    np.subtract(dead, 1, out=keep)
    bits = dhidden.view(np.int64)
    bits &= keep


# Byte budget of one client block of local SGD: its parameter stacks, one
# batch of inputs and its step workspace. A block within it stays in cache
# from one op of a step to the next; at hidden width 256, 50 clients' stacks
# do not.
_SGD_BLOCK_BYTES = 2 << 20


def _sgd_block_clients(model: MlpModel, num_params: int, batch: int) -> int:
    """Clients per SGD block: as many as fit ``_SGD_BLOCK_BYTES``, at least one."""
    # per client: parameters and gradients; per batch row, its inputs, the
    # hidden, dhidden, int64 mask, logits, row max and row sum at 8 bytes a
    # value, and the bool mask and one-hot label at one byte
    row = 8 * (model.dim + 3 * model.hidden + model.classes + 2) + model.hidden + model.classes
    return max(1, _SGD_BLOCK_BYTES // (16 * num_params + batch * row))


def _one_hot(y: np.ndarray, classes: int) -> np.ndarray:
    """Bool (..., classes) labels: True in column y, for every label of ``y``."""
    hot = np.empty((*y.shape, classes), dtype=bool)
    # a class at a time, as a compare broadcast over the class axis buffers
    # 128 KB of operands
    for c in range(classes):
        np.equal(y, c, out=hot[..., c])
    return hot


def local_updates(
    model: MlpModel,
    weights: ModelWeights,
    train_x: np.ndarray,
    train_y: np.ndarray,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    rngs: Sequence[np.random.Generator],
    client_ids: Sequence[int],
) -> list[ClientUpdate]:
    """Mini-batch SGD from ``weights`` on every client's shard, clients batched.

    ``train_x`` (K, n, d) and ``train_y`` (K, n) hold K shards of one length
    n. Client k shuffles its shard once per epoch with ``rngs[k]``. Client k
    trains row k of one (K, P) round matrix. Blocks of clients step their
    rows as (B, ...) per-layer views, one stacked step per batch written into
    one workspace per block, and each client's result is bit-identical to
    stepping it alone. One finiteness check over the matrix then raises
    ValueError for weights that diverged, and its read-only rows are the
    returned models, with no copy.
    """
    if train_x.ndim != 3 or train_y.shape != train_x.shape[:2]:
        raise ValueError(
            f"shards must stack to (K, n, d) inputs and (K, n) labels of one length n, "
            f"got {train_x.shape} and {train_y.shape}"
        )
    K, n = train_y.shape
    if len(rngs) != K or len(client_ids) != K:
        raise ValueError(f"need one rng and one client id per shard, for {K} shards")
    if not K:
        return []
    if not n:
        raise ValueError("shards must hold at least one training row")
    batch = min(batch_size, n)
    block = _sgd_block_clients(model, weights.num_params, batch)
    shapes, B, d = weights.shapes, min(block, K), train_x.shape[2]
    matrix = np.empty((K, weights.num_params))
    grad_rows = np.empty((B, weights.num_params))
    # a block's batches are gathered by row number from one table of the
    # inputs' rows and one one-hot label table for the call; client k's row i
    # is row k * n + i of both. The input table is a view of a C-contiguous
    # stack, and numpy's reshape copies any other layout once.
    x_rows = train_x.reshape(K * n, d)
    hot_rows = _one_hot(train_y, model.classes).reshape(K * n, -1)
    x_at = np.empty((B, n), dtype=np.intp)
    hot = np.empty((B, n, hot_rows.shape[1]), dtype=bool)
    inputs = np.empty(B * batch * d, dtype=train_x.dtype)
    for lo in range(0, K, block):
        hi = min(lo + block, K)
        b = hi - lo
        params, grad = matrix[lo:hi], grad_rows[:b]
        params[:] = weights.flat()
        layers = _layer_views(params, shapes)
        work = _StepBuffers.new(layers, batch, _layer_views(grad, shapes))
        first_rows = np.arange(lo, hi)[:, None] * n + np.arange(n)
        for _ in range(epochs):
            # client k shuffles its shard's row numbers in place, which draws
            # from rngs[k] as permutation(n) does and permutes them alike
            x_at[:b] = first_rows
            for i, k in enumerate(range(lo, hi)):
                rngs[k].shuffle(x_at[i])
            # every index is in range, and mode "clip" spares take the copy
            # of ``out`` that its default mode makes
            np.take(hot_rows, x_at[:b], axis=0, out=hot[:b], mode="clip")
            for start in range(0, n, batch):
                m = min(batch, n - start)
                x = inputs[: b * m * d].reshape(b, m, d)
                np.take(x_rows, x_at[:b, start : start + m], axis=0, out=x, mode="clip")
                model._gradients(layers, x, hot[:b, start : start + m], work)
                # bit for bit ``p -= learning_rate * g``, with no temporary
                grad *= learning_rate
                params -= grad
    return [
        ClientUpdate(client_id=client_ids[k], weights=w, dataset_size=n)
        for k, w in enumerate(ModelWeights.from_rows(matrix, shapes))
    ]


def _layer_views(rows: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """The (B, *shape) view of every layer in a (B, P) matrix of flat models."""
    return [rows[:, part].reshape(-1, *s) for part, s in zip(layer_slices(shapes), shapes)]


def local_update(
    model: MlpModel,
    weights: ModelWeights,
    data: ClientData,
    epochs: int,
    batch_size: int,
    learning_rate: float,
    rng: np.random.Generator,
    client_id: int = 0,
) -> ClientUpdate:
    """Mini-batch SGD on one client's training shard: the one-client
    :func:`local_updates`; shuffling comes from rng."""
    return local_updates(
        model,
        weights,
        data.train_x[None],
        data.train_y[None],
        epochs,
        batch_size,
        learning_rate,
        [rng],
        [client_id],
    )[0]


# ---------------------------------------------------------------------------
# round loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AggregatorSpec:
    """Server-side aggregation rule for a run.

    kind: a key of :data:`AGGREGATORS`. ``trim_n`` / ``krum_f`` of None mean
    "match the attacker count", the best-case tuning for those baselines.
    """

    kind: str = "fedavg"
    trim_n: int | None = None
    krum_f: int | None = None
    strategy: FftStrategy = field(default_factory=FftStrategy)
    detector: DetectorConfig = field(default_factory=DetectorConfig)

    def __post_init__(self):
        if self.kind not in AGGREGATORS:
            raise ValueError(f"unknown aggregator kind {self.kind!r}")
        if min(self.trim_n or 0, self.krum_f or 0) < 0:
            raise ValueError("trim_n and krum_f must be non-negative")

    @property
    def label(self) -> str:
        """The kind, with the density strategy for the rules that use one."""
        if self.kind in ("fft", "dynamic"):
            return f"{self.kind}:{self.strategy.kind}"
        return self.kind


@dataclass(frozen=True)
class TrainConfig:
    rounds: int = 30
    epochs: int = 2
    batch_size: int = 32
    learning_rate: float = 0.05
    hidden: int = 16
    aggregator: AggregatorSpec = field(default_factory=AggregatorSpec)
    attack: AttackSpec = field(default_factory=AttackSpec)
    seed: int = 0

    def __post_init__(self):
        if min(self.rounds, self.epochs, self.batch_size, self.hidden) < 1:
            raise ValueError("rounds, epochs, batch_size and hidden must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    decision: str
    detector_score: float | None
    global_accuracy: float
    global_loss: float


# Every aggregator kind and its rule, called as (spec, updates, attacker
# count, seed). Each entry looks its callee up in this module's globals at
# call time, so rebinding e.g. ``fedsim.krum`` reaches table dispatch too.
AGGREGATORS: dict[str, Callable[..., tuple[ModelWeights, str, float | None]]] = {
    "fedavg": lambda s, u, f, seed: (fed_avg(u), DECISION_NA, None),
    "median": lambda s, u, f, seed: (coordinate_median(u), DECISION_NA, None),
    "trimmed_mean": lambda s, u, f, seed: (
        trimmed_mean(u, TrimParam(f if s.trim_n is None else s.trim_n)), DECISION_NA, None
    ),
    "krum": lambda s, u, f, seed: (
        krum(u, KrumParam(f if s.krum_f is None else s.krum_f)), DECISION_NA, None
    ),
    "fft": lambda s, u, f, seed: (fft_aggregate(u, s.strategy), DECISION_NA, None),
    "dynamic": lambda s, u, f, seed: dynamic_aggregate(u, s.detector, s.strategy, seed),
}


def aggregate(
    spec: AggregatorSpec,
    updates: Sequence[ClientUpdate],
    attacker_count: int,
    seed: int,
) -> tuple[ModelWeights, str, float | None]:
    """Apply the spec's rule: ``(weights, decision, detector score)``.

    ``attacker_count`` stands in for an unset ``trim_n`` / ``krum_f``; ``seed``
    keys the detector's draws. Only ``dynamic`` makes a decision and a score;
    the other kinds return ``"n/a"`` and None.
    """
    return AGGREGATORS[spec.kind](spec, updates, attacker_count, seed)


def attacker_ids_for(cfg: TrainConfig, task: SyntheticTask) -> set[int]:
    """The attacker set a run with this config uses, sampled from the run seed."""
    count = cfg.attack.attacker_count(task.clients)
    if not count:
        return set()
    rng = np.random.default_rng([cfg.seed, _SALT_ATTACKER_SET])
    return set(rng.choice(task.clients, size=count, replace=False).tolist())


def run_experiment(
    cfg: TrainConfig,
    task: SyntheticTask,
    round_hook: Callable[[int, Sequence[ClientUpdate], ModelWeights], None] | None = None,
) -> list[RoundRecord]:
    """Run a full federation: local training, attack, aggregation, evaluation.

    The attacker set is sampled once per run and held fixed across rounds;
    the attack itself activates at ``cfg.attack.start_round``. All clients
    participate every round. An attacker whose submission the attack replaces
    without reading it (:data:`adversary.READS_TRAINED`) is not trained once
    the attack is on: the global model stands in for its update until
    ``apply_attack`` replaces it. ``round_hook``, if given, observes
    ``(round, post-attack updates, aggregated weights)`` after each round.
    """
    data = gen_task(task)
    model = MlpModel(dim=task.dim, hidden=cfg.hidden, classes=task.classes)
    weights = model.init_weights(cfg.seed)

    attacker_count = cfg.attack.attacker_count(task.clients)
    attacker_ids = attacker_ids_for(cfg, task)
    untrained = set() if adversary.READS_TRAINED[cfg.attack.kind] else attacker_ids
    honest = None  # the other clients' ids and shards, selected at the first skip

    records: list[RoundRecord] = []
    for rnd in range(1, cfg.rounds + 1):
        attacked = cfg.attack.kind != adversary.ATTACK_NONE and rnd >= cfg.attack.start_round
        skip = untrained if attacked else set()
        if skip and honest is None:
            ids = [k for k in range(task.clients) if k not in skip]
            honest = ids, data.train_x[ids], data.train_y[ids]
        ids, train_x, train_y = honest if skip else (range(task.clients), data.train_x, data.train_y)
        updates = local_updates(
            model,
            weights,
            train_x,
            train_y,
            cfg.epochs,
            cfg.batch_size,
            cfg.learning_rate,
            [np.random.default_rng([cfg.seed, rnd, k]) for k in ids],
            ids,
        )
        if skip:
            # the attack reads only the layer shapes of these entries
            trained, n = iter(updates), data.train_y.shape[1]
            updates = [
                ClientUpdate(k, weights, n) if k in skip else next(trained)
                for k in range(task.clients)
            ]
        if attacked:
            updates = apply_attack(
                updates,
                cfg.attack,
                attacker_ids,
                np.random.default_rng([cfg.seed, rnd, _SALT_ATTACK_RNG]),
            )
        weights, decision, score = aggregate(
            cfg.aggregator, updates, attacker_count, seed=cfg.seed * 100003 + rnd
        )
        accuracy, loss = model.evaluate(weights, data.global_test_x, data.global_test_y)
        if round_hook is not None:
            round_hook(rnd, updates, weights)
        records.append(
            RoundRecord(
                round=rnd,
                decision=decision,
                detector_score=score,
                global_accuracy=accuracy,
                global_loss=loss,
            )
        )
    return records
