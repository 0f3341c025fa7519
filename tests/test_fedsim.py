import inspect
import sys
import tracemalloc

import numpy as np
import pytest

from fedfft import fedsim
from fedfft.adversary import ATTACK_MIN_MAX, ATTACK_NONE, ATTACK_RANDOM_WEIGHTS, AttackSpec, apply_attack
from fedfft.detector import DetectorConfig
from fedfft.fedsim import (
    AggregatorSpec,
    MlpModel,
    SyntheticTask,
    TrainConfig,
    aggregate,
    attacker_ids_for,
    gen_task,
    local_update,
    local_updates,
    run_experiment,
)
from fedfft.oracles import grad_check, sgd_loop
from fedfft.tensors import ModelWeights


class TestGenTask:
    def test_iid_label_histograms_near_uniform(self):
        task = SyntheticTask(seed=3)
        data = gen_task(task)
        expect = task.per_client / task.classes
        sigma = np.sqrt(task.per_client * (1 / task.classes) * (1 - 1 / task.classes))
        for shard in data.clients:
            labels = np.concatenate([shard.train_y, shard.test_y])
            counts = np.bincount(labels, minlength=task.classes)
            assert np.all(np.abs(counts - expect) <= 3.0 * sigma)

    def test_zero_noise_is_separable_by_nearest_center(self):
        task = SyntheticTask(noise_sigma=0.0, seed=4)
        data = gen_task(task)
        dists = np.linalg.norm(
            data.global_test_x[:, None, :] - data.centers[None, :, :], axis=2
        )
        assert np.mean(dists.argmin(axis=1) == data.global_test_y) == 1.0

    def test_same_seed_bit_identical(self):
        a = gen_task(SyntheticTask(seed=9))
        b = gen_task(SyntheticTask(seed=9))
        assert np.array_equal(a.global_test_x, b.global_test_x)
        for sa, sb in zip(a.clients, b.clients):
            assert np.array_equal(sa.train_x, sb.train_x)
            assert np.array_equal(sa.train_y, sb.train_y)

    def test_dirichlet_skews_labels(self):
        task = SyntheticTask(dirichlet_alpha=0.1, seed=5)
        data = gen_task(task)
        # under heavy skew at least one client concentrates half its mass on one class
        tops = [
            np.bincount(shard.train_y, minlength=task.classes).max() / len(shard.train_y)
            for shard in data.clients
        ]
        assert max(tops) > 0.5

    def test_split_sizes(self):
        task = SyntheticTask(per_client=50)
        data = gen_task(task)
        assert data.clients[0].train_x.shape[0] == 40
        assert data.clients[0].test_x.shape[0] == 10
        assert data.global_test_x.shape == (1000, task.dim)


def shards_one_by_one(task):
    """Each client's (train_x, train_y, test_x, test_y), drawn and split on
    its own: gen_task's shards before they were stacked."""
    rng = np.random.default_rng([task.seed, fedsim._SALT_CENTERS])
    dirs = rng.normal(size=(task.classes, task.dim))
    centers = fedsim.CENTER_RADIUS * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    n_train = int(fedsim.TRAIN_SPLIT * task.per_client)
    out = []
    for k in range(task.clients):
        crng = np.random.default_rng([task.seed, fedsim._SALT_CLIENT_DATA, k])
        if task.dirichlet_alpha is None:
            labels = crng.integers(0, task.classes, task.per_client)
        else:
            mix = crng.dirichlet(np.full(task.classes, task.dirichlet_alpha))
            labels = crng.choice(task.classes, size=task.per_client, p=mix)
        x = centers[labels] + crng.normal(0.0, task.noise_sigma, (task.per_client, task.dim))
        out.append((x[:n_train], labels[:n_train], x[n_train:], labels[n_train:]))
    return out


class TestGenTaskStack:
    @pytest.mark.parametrize(
        "task",
        [
            SyntheticTask(seed=3),
            SyntheticTask(dim=5, classes=3, per_client=37, clients=7, dirichlet_alpha=0.3, seed=8),
        ],
    )
    def test_stack_equals_one_by_one_shards_bytes(self, task):
        data = gen_task(task)
        want = shards_one_by_one(task)
        assert data.train_x.shape == (task.clients, want[0][0].shape[0], task.dim)
        assert data.train_y.shape == data.train_x.shape[:2]
        for k, (tx, ty, vx, vy) in enumerate(want):
            assert data.train_x[k].tobytes() == tx.tobytes()
            assert data.train_y[k].dtype == ty.dtype
            assert data.train_y[k].tobytes() == ty.tobytes()
            shard = data.clients[k]
            for got, ref in ((shard.train_x, tx), (shard.train_y, ty), (shard.test_x, vx), (shard.test_y, vy)):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_client_shards_are_views_of_the_stack(self):
        data = gen_task(SyntheticTask(clients=4, seed=2))
        for k, shard in enumerate(data.clients):
            assert np.shares_memory(shard.train_x, data.train_x)
            assert np.shares_memory(shard.train_y, data.train_y)
            assert np.shares_memory(shard.train_x, data.train_x[k])

    def test_stack_deterministic_per_seed(self):
        a, b = gen_task(SyntheticTask(seed=9)), gen_task(SyntheticTask(seed=9))
        assert a.train_x.tobytes() == b.train_x.tobytes()
        assert a.train_y.tobytes() == b.train_y.tobytes()
        assert a.train_x.tobytes() != gen_task(SyntheticTask(seed=10)).train_x.tobytes()


class TestLocalUpdate:
    def test_zero_learning_rate_is_identity(self):
        task = SyntheticTask()
        data = gen_task(task)
        model = MlpModel(dim=task.dim, classes=task.classes)
        w = model.init_weights(0)
        out = local_update(model, w, data.clients[0], 2, 32, 0.0, np.random.default_rng(0))
        assert out.weights == w
        assert out.dataset_size == data.clients[0].train_x.shape[0]

    def test_one_step_matches_analytic_gradient(self):
        # single sample, batch of one, one epoch: exactly one SGD step
        model = MlpModel(dim=2, hidden=2, classes=2)
        w1 = np.array([[0.5, -0.25], [0.1, 0.8]])
        b1 = np.array([0.05, -0.1])
        w2 = np.array([[0.3, -0.4], [0.7, 0.2]])
        b2 = np.array([0.0, 0.1])
        weights = ModelWeights([w1, b1, w2, b2])
        x = np.array([[1.2, -0.7]])
        y = np.array([1])
        lr = 0.1
        expected = sgd_loop(weights, x, y, 1, 1, lr, np.random.default_rng(0))

        from fedfft.fedsim import ClientData

        shard = ClientData(train_x=x, train_y=y, test_x=x, test_y=y)
        out = local_update(model, weights, shard, 1, 1, lr, np.random.default_rng(0))
        for got, want in zip(out.weights.layers, expected):
            assert np.max(np.abs(got - want)) < 1e-10

    def test_loss_decreases_with_small_steps(self):
        task = SyntheticTask(seed=6)
        data = gen_task(task)
        model = MlpModel(dim=task.dim, classes=task.classes)
        w = model.init_weights(1)
        shard = data.clients[0]
        before = model.loss(w, shard.train_x, shard.train_y)
        out = local_update(model, w, shard, 1, len(shard.train_x), 0.01, np.random.default_rng(0))
        after = model.loss(out.weights, shard.train_x, shard.train_y)
        assert after <= before

    def test_diverged_update_raises_non_finite(self):
        task = SyntheticTask()
        data = gen_task(task)
        model = MlpModel(dim=task.dim, classes=task.classes)
        w = model.init_weights(0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                local_update(model, w, data.clients[0], 2, 32, 1e300, np.random.default_rng(0))


def assert_matches_loop(task, hidden, epochs, batch_size=32, learning_rate=0.05, seed=0, ids=None):
    """local_updates on the task's stack, or on the copy of the shards ``ids``
    selects, against sgd_loop on each shard alone."""
    data = gen_task(task)
    model = MlpModel(dim=task.dim, hidden=hidden, classes=task.classes)
    w = model.init_weights(seed)
    key = lambda k: np.random.default_rng([seed, 1, k])  # noqa: E731
    ids = list(range(task.clients)) if ids is None else ids
    stack = (data.train_x, data.train_y) if len(ids) == task.clients else (data.train_x[ids], data.train_y[ids])
    got = local_updates(
        model, w, *stack, epochs, batch_size, learning_rate, [key(k) for k in ids], ids
    )
    assert [u.client_id for u in got] == ids
    for k, u in zip(ids, got):
        shard = data.clients[k]
        want = sgd_loop(w, shard.train_x, shard.train_y, epochs, batch_size, learning_rate, key(k))
        assert u.dataset_size == shard.train_x.shape[0]
        for li, (a, b) in enumerate(zip(u.weights.layers, want)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), (k, li)


class TestBatchedSgd:
    """The batched step is bit-identical to training each client alone."""

    @pytest.mark.parametrize("clients", [1, 2, 20, 50])
    @pytest.mark.parametrize("hidden", [16, 256])
    @pytest.mark.parametrize("epochs", [1, 2, 3])
    def test_bit_identical_to_per_client_loop(self, clients, hidden, epochs):
        task = SyntheticTask(dim=8, per_client=40, clients=clients, seed=clients + hidden)
        assert_matches_loop(task, hidden, epochs)

    # numpy's class-axis sum, which the softmax keeps, turns pairwise at 8 classes
    @pytest.mark.parametrize("classes", [2, 8, 10])
    @pytest.mark.parametrize("clients, hidden", [(1, 16), (20, 16), (7, 256)])
    def test_class_counts(self, classes, clients, hidden):
        task = SyntheticTask(dim=6, classes=classes, per_client=50, clients=clients, seed=classes + clients)
        assert_matches_loop(task, hidden, 2)

    def test_stack_view_and_subset_copy(self):
        # gen_task's (K, n, d) stack is a view that skips each shard's test
        # rows; run_experiment trains an honest subset from a contiguous copy
        task = SyntheticTask(per_client=60, clients=20, seed=11)
        assert not gen_task(task).train_x.flags.c_contiguous
        assert_matches_loop(task, 16, 2)
        assert_matches_loop(task, 16, 2, ids=[0, 2, 3, 5, 8, 9, 11, 13, 14, 16, 17, 19])

    @pytest.mark.parametrize(
        "layout",
        [
            lambda a: np.ascontiguousarray(a)[:, ::2],  # shards 25.5 rows apart
            lambda a: np.ascontiguousarray(a)[::-1],  # shards a negative row count apart
            lambda a: a[:, ::-1],  # rows a negative stride apart
            lambda a: np.broadcast_to(a[1], a.shape),  # shards 0 rows apart
        ],
    )
    def test_any_stack_layout(self, layout):
        task = SyntheticTask(per_client=64, clients=4, seed=12)
        data = gen_task(task)
        model = MlpModel(dim=task.dim, classes=task.classes)
        w = model.init_weights(3)
        x, y = layout(data.train_x), layout(data.train_y)
        rngs = lambda: [np.random.default_rng(k) for k in range(4)]  # noqa: E731
        got = local_updates(model, w, x, y, 2, 8, 0.05, rngs(), range(4))
        for k, rng in enumerate(rngs()):
            want = sgd_loop(w, x[k], y[k], 2, 8, 0.05, rng)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got[k].weights.layers, want))

    def test_short_last_batch(self):
        # 75 training rows: batches of 32, 32 and 11
        task = SyntheticTask(per_client=94, clients=6, seed=1)
        assert gen_task(task).train_x.shape[1] % 32 == 11
        assert_matches_loop(task, 16, 2)

    def test_batch_of_one_and_batch_past_the_shard(self):
        task = SyntheticTask(per_client=10, clients=3, seed=2)
        assert_matches_loop(task, 16, 1, batch_size=1)
        assert_matches_loop(task, 16, 2, batch_size=100)

    def test_dirichlet_shards(self):
        task = SyntheticTask(dim=6, classes=5, per_client=60, clients=9, dirichlet_alpha=0.2, seed=4)
        assert_matches_loop(task, 16, 2)

    @pytest.mark.parametrize("budget", [1, 2**40])
    def test_block_budget_does_not_change_the_result(self, monkeypatch, budget):
        monkeypatch.setattr(fedsim, "_SGD_BLOCK_BYTES", budget)
        assert_matches_loop(SyntheticTask(dim=8, per_client=40, clients=7, seed=5), 256, 2)
        assert_matches_loop(SyntheticTask(per_client=94, clients=5, seed=6), 16, 1)

    def test_blocks_split_a_wide_model(self):
        model = MlpModel(dim=64, hidden=256, classes=4)
        block = fedsim._sgd_block_clients(model, model.init_weights(0).num_params, 32)
        assert 1 < block < 50
        assert fedsim._sgd_block_clients(MlpModel(dim=8), 212, 32) >= 50

    def test_one_diverging_client_raises_non_finite(self):
        task = SyntheticTask(clients=5, per_client=40, seed=7)
        data = gen_task(task)
        model = MlpModel(dim=task.dim, classes=task.classes)
        x = data.train_x.copy()
        x[3] *= 1e200
        rngs = [np.random.default_rng(k) for k in range(task.clients)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                local_updates(model, model.init_weights(0), x, data.train_y, 2, 32, 0.05, rngs, range(5))

    def test_unequal_shards_raise(self):
        model = MlpModel(dim=2, classes=2)
        w = model.init_weights(0)
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ValueError, match="one length"):
            local_updates(model, w, np.zeros((2, 5, 2)), np.zeros((2, 4), dtype=int), 1, 2, 0.1, rngs, [0, 1])
        with pytest.raises(ValueError, match="one rng"):
            local_updates(model, w, np.zeros((2, 5, 2)), np.zeros((2, 5), dtype=int), 1, 2, 0.1, rngs[:1], [0, 1])

    def test_no_shards_and_empty_shards(self):
        model = MlpModel(dim=2, classes=2)
        w = model.init_weights(0)
        assert local_updates(model, w, np.zeros((0, 5, 2)), np.zeros((0, 5), dtype=int), 1, 2, 0.1, [], []) == []
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ValueError, match="at least one training row"):
            local_updates(model, w, np.zeros((2, 0, 2)), np.zeros((2, 0), dtype=int), 1, 2, 0.1, rngs, [0, 1])

    def test_local_update_is_the_one_client_case(self):
        task = SyntheticTask(clients=3, per_client=50, seed=8)
        data = gen_task(task)
        model = MlpModel(dim=task.dim, classes=task.classes)
        w = model.init_weights(1)
        one = local_update(model, w, data.clients[2], 2, 16, 0.05, np.random.default_rng(4), client_id=2)
        many = local_updates(
            model, w, data.train_x, data.train_y, 2, 16, 0.05,
            [np.random.default_rng(k + 2) for k in range(3)], [0, 1, 2],
        )
        assert one == many[2]


class TestRoundMatrix:
    """local_updates trains every client in one (K, P) matrix whose rows become the models."""

    def test_a_client_diverging_in_a_later_block_raises(self, monkeypatch):
        task = SyntheticTask(clients=7, per_client=40, seed=9)
        data = gen_task(task)
        model = MlpModel(dim=task.dim, classes=task.classes)
        w = model.init_weights(0)
        # a budget below one client's needs makes a block of each client
        monkeypatch.setattr(fedsim, "_SGD_BLOCK_BYTES", 1)
        block = fedsim._sgd_block_clients(model, w.num_params, 32)
        assert -(-task.clients // block) >= 3
        x = data.train_x.copy()
        x[6] *= 1e200
        rngs = [np.random.default_rng(k) for k in range(task.clients)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="row 6 layer [0-3] contains non-finite"):
                local_updates(model, w, x, data.train_y, 2, 32, 0.05, rngs, range(7))

    def test_models_are_read_only_rows_of_one_matrix(self):
        task = SyntheticTask(clients=4, per_client=40, seed=10)
        data = gen_task(task)
        model = MlpModel(dim=task.dim, classes=task.classes)
        rngs = [np.random.default_rng(k) for k in range(task.clients)]
        updates = local_updates(model, model.init_weights(0), data.train_x, data.train_y, 1, 32, 0.05, rngs, range(4))
        for u in updates:
            flat = u.weights.flat()
            assert not flat.flags.writeable
            with pytest.raises(ValueError):
                flat[0] = 1.0
            with pytest.raises(ValueError):
                u.weights.layers[1][0] = 1.0
            with pytest.raises(ValueError):
                flat.setflags(write=True)
        assert updates[0].weights.flat().base is updates[-1].weights.flat().base


class TestStepBuffers:
    def test_relu_backward_matches_select_bytes(self):
        special = [np.nan, -np.nan, 0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 5e-324, -5e-324]
        hidden, dhidden = (a.ravel() for a in np.meshgrid(special, special, indexing="ij"))
        rng = np.random.default_rng(3)
        hidden = np.concatenate([hidden, rng.normal(size=500)]).reshape(2, 5, -1)
        dhidden = np.concatenate([dhidden, rng.normal(size=500)]).reshape(2, 5, -1)
        want = np.where(hidden <= 0.0, 0.0, dhidden)
        got = dhidden.copy()
        fedsim._relu_backward(hidden, got, np.empty(hidden.shape, bool), np.empty(hidden.shape, np.int64))
        assert got.tobytes() == want.tobytes()
        # on strided views of larger scratch too, as a short batch uses them
        got = np.full((2, 7, hidden.shape[-1]), np.nan)
        got[:, :5] = dhidden
        dead = np.ones(got.shape, bool)
        keep = np.full(got.shape, -1, np.int64)
        fedsim._relu_backward(hidden, got[:, :5], dead[:, :5], keep[:, :5])
        assert got[:, :5].tobytes() == want.tobytes()
        assert np.isnan(got[:, 5:]).all()

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_reused_workspace_matches_fresh_bytes(self, lead):
        # a workspace full of NaN bits from earlier steps, then a shorter batch
        model = MlpModel(dim=5, hidden=24, classes=3)
        w = model.init_weights(2)
        layers = [np.broadcast_to(a, (*lead, *a.shape)).copy() for a in w.layers]
        rng = np.random.default_rng(5)
        work = fedsim._StepBuffers.new(layers, 16)
        for a in (*work[:-1], *work.grads):
            a.view(np.uint8)[...] = 0xFF
        for m in (16, 11, 1):
            x = rng.normal(size=(*lead, m, 5))
            hot = fedsim._one_hot(rng.integers(0, 3, (*lead, m)), 3)
            fresh = model._gradients(layers, x, hot)
            reused = model._gradients(layers, x, hot, work)
            assert all(a is b for a, b in zip(reused, work.grads))
            for a, b in zip(reused, fresh):
                assert a.tobytes() == b.tobytes()


class TestAllocations:
    """local_updates at sim-onset's shape (20 shards of 160 rows, an 8-16-4
    model, batches of 32) allocates nothing of 128 KB, glibc's default mmap
    threshold, at or above which each call would map and page-fault fresh
    memory; the (K, P) result is 34 KB here. Byte counts are deterministic."""

    @staticmethod
    def _call(epochs):
        data = gen_task(SyntheticTask(noise_sigma=1.0))
        model = MlpModel(dim=8, hidden=16, classes=4)
        rngs = [np.random.default_rng([0, 1, k]) for k in range(20)]
        return lambda: local_updates(
            model, model.init_weights(0), data.train_x, data.train_y, epochs, 32, 0.05, rngs, range(20)
        )

    @staticmethod
    def _peak_growth(call):
        call()  # caches filled, as in a round after the first
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()

    def test_no_line_allocates_128_kb(self):
        call = self._call(2)
        call()
        grown = []  # per line of fedsim run: its peak over what was live before it

        def trace(frame, event, arg):
            if frame.f_code.co_filename != fedsim.__file__:
                return None
            grown.append(tracemalloc.get_traced_memory()[1] - trace.live)
            tracemalloc.reset_peak()
            trace.live = tracemalloc.get_traced_memory()[0]
            return trace

        before = sys.gettrace()
        tracemalloc.start()
        try:
            trace.live = tracemalloc.get_traced_memory()[0]
            sys.settrace(trace)
            call()
        finally:
            sys.settrace(before)
            tracemalloc.stop()
        assert len(grown) > 100
        assert max(grown) < 128 << 10

    def test_peak_does_not_grow_with_epochs(self):
        one, three = (self._peak_growth(self._call(epochs)) for epochs in (1, 3))
        assert three <= one + 1024


class TestModel:
    def test_softmax_rows_sum_to_one(self):
        model = MlpModel(dim=3, hidden=4, classes=5)
        w = model.init_weights(2)
        x = np.random.default_rng(0).normal(size=(32, 3))
        _, probs = model.forward(w, x)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12

    def test_grad_check_small_net(self):
        model = MlpModel(dim=4, hidden=5, classes=3)
        rng = np.random.default_rng(7)
        w = model.init_weights(7)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, 8)
        assert grad_check(model, w, x, y) < 1e-5

    def test_zero_weights_bias_gradient_closed_form(self):
        model = MlpModel(dim=3, hidden=4, classes=3)
        zero = ModelWeights(
            [np.zeros((3, 4)), np.zeros(4), np.zeros((4, 3)), np.zeros(3)]
        )
        x = np.array([[1.0, -1.0, 0.5], [-0.5, 0.25, 2.0]])
        y = np.array([0, 2])
        grads = model.gradients(zero, x, y)
        onehot = np.zeros((2, 3))
        onehot[np.arange(2), y] = 1.0
        expected = (np.full((2, 3), 1.0 / 3.0) - onehot).mean(axis=0)
        assert np.allclose(grads[3], expected, atol=1e-15)

    def test_grad_check_identical_arrays_scores_zero(self):
        # the relative-error metric itself: identical values give zero
        model = MlpModel(dim=2, hidden=2, classes=2)
        w = model.init_weights(0)
        x = np.random.default_rng(1).normal(size=(4, 2))
        y = np.array([0, 1, 0, 1])
        assert grad_check(model, w, x, y) >= 0.0


class TestRunExperiment:
    def test_one_round_zero_lr_keeps_initial_weights(self):
        task = SyntheticTask(clients=5, per_client=20)
        cfg = TrainConfig(rounds=1, learning_rate=0.0, seed=3)
        records = run_experiment(cfg, task)
        assert len(records) == 1
        model = MlpModel(dim=task.dim, hidden=cfg.hidden, classes=task.classes)
        init = model.init_weights(cfg.seed)
        data = gen_task(task)
        acc, loss = model.evaluate(init, data.global_test_x, data.global_test_y)
        assert records[0].global_accuracy == acc
        assert records[0].global_loss == loss

    def test_determinism_bit_for_bit(self):
        task = SyntheticTask(clients=6, per_client=40, seed=1)
        cfg = TrainConfig(
            rounds=3,
            aggregator=AggregatorSpec(kind="dynamic", detector=DetectorConfig(subset_size=2)),
            seed=5,
        )
        a = run_experiment(cfg, task)
        b = run_experiment(cfg, task)
        for ra, rb in zip(a, b):
            assert ra.global_accuracy == rb.global_accuracy
            assert ra.global_loss == rb.global_loss
            assert ra.decision == rb.decision
            assert ra.detector_score == rb.detector_score

    def test_default_run_converges(self):
        records = run_experiment(TrainConfig(seed=0), SyntheticTask(seed=0))
        assert records[-1].global_accuracy > 0.90

    def test_dynamic_stays_on_fedavg_without_attack(self):
        cfg = TrainConfig(rounds=20, aggregator=AggregatorSpec(kind="dynamic"), seed=11)
        records = run_experiment(cfg, SyntheticTask(seed=0))
        fedavg_rounds = sum(r.decision == "fedavg" for r in records)
        assert fedavg_rounds >= 19

    def test_accuracy_non_decreasing_smoothed_until_plateau(self):
        task = SyntheticTask(clients=10, per_client=80, seed=2)
        specs = [
            AggregatorSpec(kind="fedavg"),
            AggregatorSpec(kind="median"),
            AggregatorSpec(kind="trimmed_mean", trim_n=1),
            AggregatorSpec(kind="krum", krum_f=1),
            AggregatorSpec(kind="fft"),
            AggregatorSpec(kind="dynamic"),
        ]
        for spec in specs:
            records = run_experiment(
                TrainConfig(rounds=12, aggregator=spec, seed=4), task
            )
            acc = np.array([r.global_accuracy for r in records])
            smoothed = np.convolve(acc, np.ones(5) / 5.0, mode="valid")
            plateau = smoothed.max()
            for i in range(1, len(smoothed)):
                if smoothed[i - 1] >= plateau - 0.02:
                    break
                assert smoothed[i] >= smoothed[i - 1] - 1e-12, spec.kind

    def test_attack_onset_round_honored(self):
        task = SyntheticTask(clients=6, per_client=40, seed=3)
        seen = {}

        def hook(rnd, updates, _weights):
            seen[rnd] = [u.weights for u in updates]

        cfg = TrainConfig(
            rounds=2,
            aggregator=AggregatorSpec(kind="median"),
            attack=AttackSpec(kind="random_weights", attacker_fraction=0.34, start_round=2),
            seed=6,
        )
        run_experiment(cfg, task, round_hook=hook)
        cfg_clean = TrainConfig(rounds=2, aggregator=AggregatorSpec(kind="median"), seed=6)
        clean = {}

        def hook_clean(rnd, updates, _weights):
            clean[rnd] = [u.weights for u in updates]

        run_experiment(cfg_clean, task, round_hook=hook_clean)
        assert seen[1] == clean[1]
        assert seen[2] != clean[2]


def attacked_config(kind, clients, start_round):
    task = SyntheticTask(clients=clients, per_client=40, seed=clients + start_round)
    cfg = TrainConfig(
        rounds=4,
        aggregator=AggregatorSpec(kind="dynamic", detector=DetectorConfig(subset_size=2)),
        attack=AttackSpec(kind=kind, attacker_fraction=0.34, start_round=start_round),
        seed=clients,
    )
    return cfg, task


def round_bytes(rnd, updates, weights):
    sent = [(u.client_id, u.dataset_size, u.weights.flat().tobytes()) for u in updates]
    return rnd, sent, weights.flat().tobytes()


def reference_run(cfg, task):
    """run_experiment from public pieces: every client trains, then the attack."""
    data = gen_task(task)
    model = MlpModel(dim=task.dim, hidden=cfg.hidden, classes=task.classes)
    weights = model.init_weights(cfg.seed)
    attackers = attacker_ids_for(cfg, task)
    seen, records = [], []
    for rnd in range(1, cfg.rounds + 1):
        updates = local_updates(
            model, weights, data.train_x, data.train_y, cfg.epochs, cfg.batch_size, cfg.learning_rate,
            [np.random.default_rng([cfg.seed, rnd, k]) for k in range(task.clients)], range(task.clients),
        )
        if cfg.attack.kind != ATTACK_NONE and rnd >= cfg.attack.start_round:
            rng = np.random.default_rng([cfg.seed, rnd, fedsim._SALT_ATTACK_RNG])
            updates = apply_attack(updates, cfg.attack, attackers, rng)
        weights, decision, score = aggregate(
            cfg.aggregator, updates, len(attackers), seed=cfg.seed * 100003 + rnd
        )
        accuracy, loss = model.evaluate(weights, data.global_test_x, data.global_test_y)
        seen.append(round_bytes(rnd, updates, weights))
        records.append(fedsim.RoundRecord(rnd, decision, score, accuracy, loss))
    return seen, records


@pytest.mark.parametrize("kind", [ATTACK_RANDOM_WEIGHTS, ATTACK_MIN_MAX, ATTACK_NONE])
@pytest.mark.parametrize("clients", [6, 12, 20])
@pytest.mark.parametrize("start_round", [1, 3])
class TestUntrainedAttackers:
    """Attackers whose submission the attack replaces unread are not trained,
    and every byte a run produces stays that of training everyone."""

    def test_run_matches_training_everyone(self, monkeypatch, kind, clients, start_round):
        cfg, task = attacked_config(kind, clients, start_round)
        model = MlpModel(dim=task.dim, hidden=cfg.hidden, classes=task.classes)
        num_params = model.init_weights(0).num_params
        batch = min(cfg.batch_size, gen_task(task).train_x.shape[1])
        # blocks of a third of the honest clients, so that they span three or more
        honest = clients - cfg.attack.attacker_count(clients)
        unit = fedsim._SGD_BLOCK_BYTES // fedsim._sgd_block_clients(model, num_params, batch)
        monkeypatch.setattr(fedsim, "_SGD_BLOCK_BYTES", max(1, honest // 3) * unit)
        assert -(-honest // fedsim._sgd_block_clients(model, num_params, batch)) >= 3

        seen = []
        records = run_experiment(cfg, task, lambda *args: seen.append(round_bytes(*args)))
        want_seen, want_records = reference_run(cfg, task)
        assert seen == want_seen
        assert records == want_records

    def test_trains_attackers_only_when_the_attack_reads_them(self, monkeypatch, kind, clients, start_round):
        cfg, task = attacked_config(kind, clients, start_round)
        trained = []
        signature = inspect.signature(local_updates)

        def recording(*args, **kwargs):
            trained.append(list(signature.bind(*args, **kwargs).arguments["client_ids"]))
            return local_updates(*args, **kwargs)

        monkeypatch.setattr(fedsim, "local_updates", recording)
        run_experiment(cfg, task)
        attackers = attacker_ids_for(cfg, task)
        assert attackers
        for rnd, ids in enumerate(trained, start=1):
            skipped = kind == ATTACK_RANDOM_WEIGHTS and rnd >= start_round
            assert ids == [k for k in range(clients) if not (skipped and k in attackers)], rnd
        assert len(trained) == cfg.rounds
