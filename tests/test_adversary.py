import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fedfft import adversary, oracles
from fedfft.adversary import (
    ATTACK_MIN_MAX,
    ATTACK_NONE,
    ATTACK_RANDOM_WEIGHTS,
    INVERSE_SIGN,
    INVERSE_STD,
    INVERSE_UNIT_VECTOR,
    AttackSpec,
    UnknownClientId,
    _GAMMA_CAP,
    ZeroNorm,
    _sq_diameter,
    apply_attack,
    min_max_craft,
    random_weights,
)
from fedfft.tensors import ClientUpdate, ModelWeights, ShapeMismatch, pairwise_sq_distances


ROOT = Path(__file__).resolve().parent.parent


def mw(*layers):
    return ModelWeights([np.asarray(a, dtype=float) for a in layers])


class TestRandomWeights:
    def test_shapes_match_template(self):
        template = mw(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)))
        out = random_weights(template, np.random.default_rng(0))
        assert out.shapes == template.shapes

    def test_moments_match_glorot(self):
        template = mw(np.zeros((40, 10)))
        rng = np.random.default_rng(1)
        draws = np.concatenate(
            [random_weights(template, rng).layers[0].ravel() for _ in range(250)]
        )  # 100k draws
        sigma = np.sqrt(2.0 / 50.0)
        assert abs(draws.mean()) < 4.0 * sigma / np.sqrt(draws.size)
        assert abs(draws.std() - sigma) < 0.02 * sigma

    def test_bytes_and_stream_of_a_normal_draw_per_layer(self):
        template = mw(np.zeros((3, 4)), np.zeros(4), np.zeros((2, 3, 5)), np.zeros(1))
        got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(3):  # each draw leaves the stream where the layer draws leave it
            got = random_weights(template, got_rng)
            for a, b in zip(got.layers, template.layers):
                fan_in, fan_out = (int(np.prod(b.shape[:-1])), b.shape[-1]) if b.ndim >= 2 else (b.size, 1)
                want = want_rng.normal(0.0, np.sqrt(2.0 / (fan_in + fan_out)), b.shape)
                assert a.tobytes() == want.tobytes()

    def test_vector_fans(self):
        template = mw(np.zeros(1000))
        rng = np.random.default_rng(2)
        draws = np.concatenate(
            [random_weights(template, rng).layers[0] for _ in range(100)]
        )
        sigma = np.sqrt(2.0 / 1001.0)
        assert abs(draws.std() - sigma) < 0.02 * sigma


class TestPerturbationVector:
    # these inputs have diameter 0 or raise first, so no gamma search runs
    def test_inverse_unit_vector_hand_case(self):
        out = min_max_craft([mw([3.0, 4.0])], INVERSE_UNIT_VECTOR).perturbation_vec
        assert np.allclose(out.layers[0], [-0.6, -0.8], atol=1e-15)

    def test_inverse_std_identical_updates(self):
        out = min_max_craft([mw([1.0, 2.0])] * 3, INVERSE_STD).perturbation_vec
        assert np.all(out.layers[0] == 0.0)

    def test_inverse_sign(self):
        out = min_max_craft([mw([2.0, -5.0, 0.0])], INVERSE_SIGN).perturbation_vec
        assert out.layers[0].tolist() == [-1.0, 1.0, 0.0]

    def test_zero_norm(self):
        with pytest.raises(ZeroNorm):
            min_max_craft([mw([0.0, 0.0])], INVERSE_UNIT_VECTOR)


class TestMinMaxCraft:
    def test_single_update_gamma_zero(self):
        res = min_max_craft([mw([3.0, 4.0])])
        assert res.gamma == 0.0
        assert res.crafted == mw([3.0, 4.0])

    def test_identical_updates_gamma_zero(self):
        res = min_max_craft([mw([1.0, 1.0])] * 4)
        assert res.gamma == 0.0
        assert res.crafted == mw([1.0, 1.0])

    def test_one_dimensional_hand_case(self):
        # points 0 and 2: mean 1, direction -1, diameter 2 -> gamma 1, crafted 0
        res = min_max_craft([mw([0.0]), mw([2.0])])
        assert res.gamma == pytest.approx(1.0, abs=1e-12)
        assert res.crafted.layers[0][0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize(
        "colluders, message",
        [
            # one size in two layouts, two sizes, two layer counts
            ([mw(np.ones((2, 1)))] * 2 + [mw(np.ones((1, 2)))], r"colluder 2 layer 0 has shape \(1, 2\), expected \(2, 1\)"),
            ([mw(np.ones(2)), mw(np.ones(3))], r"colluder 1 layer 0 has shape \(3,\), expected \(2,\)"),
            ([mw(np.ones(2)), mw(np.ones(1), np.ones(1))], "colluder 1 has 2 layers, expected 1"),
        ],
    )
    def test_colluders_of_other_layer_shapes_raise(self, colluders, message):
        with pytest.raises(ShapeMismatch, match=message):
            min_max_craft(colluders)

    def _feasibility(self, points, res):
        crafted = res.crafted.flat()
        diameter = oracles.diameter(points)
        worst = max(np.linalg.norm(crafted - p) for p in points)
        return worst, diameter

    def test_feasible_and_maximal(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            dim = int(rng.integers(1, 4))
            pts = rng.normal(size=(m, dim))
            mal = [mw(p) for p in pts]
            res = min_max_craft(mal)
            worst, diameter = self._feasibility(pts, res)
            assert worst - diameter <= 1e-6 * (1.0 + diameter)
            if res.gamma > 0.0:
                mean = pts.mean(axis=0)
                pert = res.perturbation_vec.flat()
                bumped = res.gamma * (1.0 + 1e-4) + 1e-9
                worst_bumped = max(
                    np.linalg.norm(mean + bumped * pert - p) for p in pts
                )
                assert worst_bumped > diameter

    @staticmethod
    def _direct_bisection(pts, pvec):
        """The gamma search on direct norms: doubling from 1, cap, 60 halvings."""
        mean = pts.mean(axis=0)
        diameter = oracles.diameter(pts)

        def feasible(gamma):
            crafted = mean + gamma * pvec
            return max(float(np.linalg.norm(crafted - row)) for row in pts) <= diameter

        def bisect(lo, hi):
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
            return lo

        if diameter == 0.0:
            return 0.0, diameter
        if not feasible(1.0):
            return bisect(0.0, 1.0), diameter
        gamma = 1.0
        while feasible(gamma * 2.0) and gamma * 2.0 <= _GAMMA_CAP:
            gamma *= 2.0
        if gamma * 2.0 > _GAMMA_CAP:
            return _GAMMA_CAP, diameter
        return bisect(gamma, gamma * 2.0), diameter

    @pytest.mark.parametrize(
        "seed, kind", enumerate([INVERSE_UNIT_VECTOR, INVERSE_STD, INVERSE_SIGN])
    )
    def test_matches_direct_norm_bisection(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            m = int(rng.integers(2, 21))
            p = int(rng.integers(1, 501))
            pts = rng.normal(rng.normal(0.0, 2.0), rng.uniform(0.05, 5.0), size=(m, p))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a capped search warns; both sides must cap
                res = min_max_craft([mw(row) for row in pts], kind)
            want, diameter = self._direct_bisection(pts, res.perturbation_vec.flat())
            assert abs(res.gamma - want) <= 1e-12 * want
            worst = max(float(np.linalg.norm(res.crafted.flat() - row)) for row in pts)
            assert worst <= diameter * (1.0 + 1e-12)

    def test_huge_colluder_gives_a_unit_direction_and_an_uncapped_gamma(self):
        # a mean coordinate beyond about 1.3e154 overflows the plain sum of squares
        rng = np.random.default_rng(16)
        pts = rng.normal(0.0, 0.1, size=(20, 17_668))
        pts[7, 123] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow, no capped search
            res = min_max_craft([mw(row) for row in pts])
        pvec = res.perturbation_vec.flat()
        assert float(np.sqrt(np.sum(pvec * pvec))) == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < res.gamma < _GAMMA_CAP * 2.0**665
        # the grid oracle in a space where distances are those of the input
        # scaled by 2^-664 (exact), and spanned by the offsets from the mean
        # and the direction, so that its (grid, 21) arrays stay small
        scaled = pts * 2.0**-664
        offsets = scaled - scaled.mean(axis=0)
        basis = np.linalg.qr(np.column_stack([offsets.T, pvec]))[0]
        top = oracles.diameter(offsets @ basis)
        best = oracles.min_max_gamma_grid(offsets @ basis, pvec @ basis, top)
        assert abs(res.gamma * 2.0**-664 - best) <= 2.0 * top / 99_999

    def test_diameter_equals_exact_pairwise_maximum(self):
        rng = np.random.default_rng(14)
        cases = [rng.normal(size=(1, 9000)), rng.normal(size=(2, 9000)), np.ones((6, 40))]
        for _ in range(40):
            m, p = int(rng.integers(2, 21)), int(rng.integers(1, 10_000))
            cases.append(rng.normal(0.1, 0.3, size=(m, p)))
            cases.append(1e3 + rng.normal(0.0, 1e-4, size=(m, p)))  # near ties
            tied = rng.normal(size=(m, p))
            tied[m // 2 :] = tied[0]
            cases.append(tied)
        far = rng.normal(size=(8, 500))
        far[5, 3] = 1e150
        cases.append(far)
        # rows whose Gram entries overflow leave their bounds (0, inf)
        for rows in (slice(5, 6), slice(None)):
            huge = rng.normal(size=(8, 500))
            huge[rows, 3] = 1e200
            cases.append(huge)
        for stack in cases:
            assert _sq_diameter(stack) == pairwise_sq_distances(stack).max()

    def test_diameter_rechecks_few_pairs(self, monkeypatch):
        stack = np.random.default_rng(15).normal(0.1, 0.3, size=(20, 17_668))
        want = pairwise_sq_distances(stack).max()
        listed = []
        monkeypatch.setattr(
            adversary,
            "pairwise_sq_distances",
            lambda rows, which: listed.append(list(which)) or pairwise_sq_distances(rows, which),
        )
        assert _sq_diameter(stack) == want
        assert len(listed) == 1 and len(listed[0]) <= 2

    def test_craft_does_not_depend_on_blas_threads(self):
        # a threaded BLAS dot splits its sum, so its last bit moves with the
        # thread count on vectors as long as a 64-256-4 model's 17,668 weights
        script = (
            "import hashlib, numpy as np\n"
            "from fedfft.adversary import min_max_craft\n"
            "from fedfft.tensors import ModelWeights\n"
            "for seed in range(3):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    shapes = [(64, 256), (256,), (256, 4), (4,)]\n"
            "    mal = [ModelWeights([rng.normal(0.1, 0.3, s) for s in shapes]) for _ in range(4)]\n"
            "    print(hashlib.sha256(min_max_craft(mal).crafted.flat().tobytes()).hexdigest())\n"
        )
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


class TestApplyAttack:
    def make_updates(self, rng, k=20):
        return [
            ClientUpdate(i, mw(rng.normal(size=6)), 10 + i) for i in range(k)
        ]

    def test_none_is_identity(self):
        rng = np.random.default_rng(5)
        ups = self.make_updates(rng)
        out = apply_attack(ups, AttackSpec(kind=ATTACK_NONE), set(), np.random.default_rng(0))
        assert out == ups

    def test_min_max_single_attacker_submits_own_weights(self):
        rng = np.random.default_rng(6)
        ups = self.make_updates(rng, k=5)
        spec = AttackSpec(kind=ATTACK_MIN_MAX, attacker_fraction=0.2)
        out = apply_attack(ups, spec, {2}, np.random.default_rng(1))
        assert out[2].weights == ups[2].weights

    def test_random_weights_touches_exactly_attackers(self):
        rng = np.random.default_rng(7)
        ups = self.make_updates(rng)
        spec = AttackSpec(kind=ATTACK_RANDOM_WEIGHTS, attacker_fraction=0.15)
        out = apply_attack(ups, spec, {1, 4, 9}, np.random.default_rng(2))
        changed = [i for i in range(20) if out[i].weights != ups[i].weights]
        assert changed == [1, 4, 9]
        assert all(out[i] is ups[i] for i in range(20) if i not in {1, 4, 9})
        assert all(out[i].dataset_size == ups[i].dataset_size for i in range(20))

    def test_min_max_collusion_bit_identical(self):
        rng = np.random.default_rng(8)
        ups = self.make_updates(rng)
        spec = AttackSpec(kind=ATTACK_MIN_MAX, attacker_fraction=0.3)
        out = apply_attack(ups, spec, {0, 3, 5, 8, 11, 17}, np.random.default_rng(3))
        crafted = out[0].weights
        for i in (3, 5, 8, 11, 17):
            assert out[i].weights == crafted

    def test_unknown_attacker_id(self):
        rng = np.random.default_rng(9)
        ups = self.make_updates(rng, k=4)
        with pytest.raises(UnknownClientId):
            apply_attack(
                ups,
                AttackSpec(kind=ATTACK_RANDOM_WEIGHTS, attacker_fraction=0.25),
                {99},
                np.random.default_rng(4),
            )

    def test_attack_spec_validation(self):
        with pytest.raises(ValueError):
            AttackSpec(kind="nope")
        with pytest.raises(ValueError):
            AttackSpec(attacker_fraction=0.5)
        with pytest.raises(ValueError):
            AttackSpec(start_round=0)
        assert AttackSpec(attacker_fraction=0.3).attacker_count(20) == 6


ATTACK_KINDS = sorted(v for k, v in vars(adversary).items() if k.startswith("ATTACK_"))


class TestReadsTrained:
    """Each attack kind declares whether its submission reads the attackers'
    trained updates; a kind that does not may be handed any model of their
    shapes in their place."""

    def test_every_kind_is_declared(self):
        assert sorted(adversary.READS_TRAINED) == ATTACK_KINDS

    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_declaration_matches_what_the_attack_reads(self, kind):
        rng = np.random.default_rng(12)
        shapes = [(3, 4), (4,), (4, 2)]
        trained = [ClientUpdate(i, mw(*(rng.normal(size=s) for s in shapes)), 10 + i) for i in range(8)]
        stand_in = mw(*(rng.normal(size=s) for s in shapes))
        attackers = {1, 4, 6}
        swapped = [
            ClientUpdate(u.client_id, stand_in, u.dataset_size) if u.client_id in attackers else u
            for u in trained
        ]
        spec = AttackSpec(kind=kind, attacker_fraction=0.375)
        outputs = [
            [
                (u.client_id, u.dataset_size, u.weights.flat().tobytes())
                for u in apply_attack(ups, spec, attackers, np.random.default_rng(13))
            ]
            for ups in (trained, swapped)
        ]
        assert (outputs[0] == outputs[1]) == (not adversary.READS_TRAINED[kind])
