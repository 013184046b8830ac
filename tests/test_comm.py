import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ehctrl.comm import (
    BufferedUniforms,
    ChannelConfig,
    DecodingCurve,
    draw_channels,
    resolve_slot,
)
from ehctrl.errors import ConfigError
from ehctrl.sim import per_slot_reception


def make_config(collision_prob=0.25, **decode_kwargs) -> ChannelConfig:
    decode = DecodingCurve(**decode_kwargs) if decode_kwargs else ChannelConfig().decode
    return ChannelConfig(fading_mean=2.0, decode=decode, collision_prob=collision_prob)


class TestDrawChannels:
    def test_deterministic_given_seed(self):
        cfg = make_config()
        a = draw_channels(cfg, [np.random.default_rng(42)] * 2, 5)
        b = draw_channels(cfg, [np.random.default_rng(42)] * 2, 5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_fading_mean(self):
        cfg = make_config()
        rng = np.random.default_rng(0)
        h = draw_channels(cfg, [rng], 100_000)[0][:, 0]
        assert h.mean() == pytest.approx(2.0, abs=0.05)

    @pytest.mark.parametrize("kind,kwargs", [
        ("exp", {"kind": "exp", "rate": 1.0}),
        ("logistic", {"kind": "logistic", "rate": 3.0, "midpoint": 1.5}),
    ])
    def test_decoding_curve_endpoints_and_monotonicity(self, kind, kwargs):
        curve = DecodingCurve(**kwargs)
        at_zero, at_fifty = curve(np.array([0.0, 50.0]))
        assert at_zero <= 0.05
        assert at_fifty >= 0.999
        grid = np.linspace(0.0, 10.0, 200)
        q = curve(grid)
        assert np.all(np.diff(q) > 0)
        assert np.all((q >= 0) & (q <= 1))

    def test_bad_curve_rejected(self):
        with pytest.raises(ConfigError):
            DecodingCurve(kind="exp", rate=0.0)
        with pytest.raises(ConfigError):
            DecodingCurve(kind="nope")


class TestResolveSlot:
    def test_lone_perfect_link(self):
        received, collided = resolve_slot(
            make_config(), np.array([True]), np.array([1.0]), [np.random.default_rng(0)]
        )
        assert received[0] and not collided[0]

    def test_certain_collision(self):
        rngs = [np.random.default_rng(seed) for seed in (0, 1)]
        received, collided = resolve_slot(
            make_config(collision_prob=1.0), np.array([True, True]), np.array([1.0, 1.0]), rngs
        )
        assert collided.all()
        assert not received.any()
        # decode draws stay independent of the collision outcome: each sender
        # drew its collision and its decode uniform
        assert [rng.random() for rng in rngs] == [
            np.random.default_rng(seed).random(3)[2] for seed in (0, 1)
        ]

    def test_no_interferer_no_collision(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            received, collided = resolve_slot(
                make_config(collision_prob=1.0), np.array([True, False]),
                np.array([0.5, 0.5]), [rng] * 2,
            )
            assert not collided[0]
            assert not collided[1] and not received[1]

    def test_marginal_matches_product_form(self):
        cfg = make_config(collision_prob=0.25)
        rng = np.random.default_rng(3)
        hits = 0
        n = 100_000
        tx, q = np.array([True, True]), np.array([1.0, 1.0])
        for _ in range(n):
            hits += int(resolve_slot(cfg, tx, q, [rng] * 2)[0][0])
        assert hits / n == pytest.approx(0.75, abs=0.01)

    def test_outcome_invariant(self):
        rng = np.random.default_rng(9)
        cfg = make_config(collision_prob=0.4)
        for _ in range(500):
            tx = rng.random(3) < 0.5
            q = rng.random(3)
            received, collided = resolve_slot(cfg, tx, q, [rng] * 3)
            assert not (received & ~(tx & ~collided)).any()
            for i in range(3):
                if not tx[i] or tx.sum() == 1:
                    assert not collided[i]


class TestBufferedCollisionStream:
    """Buffered collision streams give the outcomes of per-sender
    ``rng.random(len(senders))`` calls on generators with the same seeds."""

    @staticmethod
    def reference_slot(cfg, tx, q, rngs):
        collided = np.zeros(tx.size, dtype=bool)
        decoded = np.zeros(tx.size, dtype=bool)
        senders = np.flatnonzero(tx)
        for i in senders:
            draws = rngs[i].random(len(senders))
            collided[i] = min(draws[:-1], default=math.inf) < cfg.collision_prob
            decoded[i] = draws[-1] < q[i]
        return collided, decoded

    @pytest.mark.parametrize("chunk", [3, 16, 256])
    def test_matches_per_sender_draws(self, chunk):
        cfg = make_config(collision_prob=0.4)
        count = 4
        buffered = [BufferedUniforms(np.random.default_rng((21, i)), chunk) for i in range(count)]
        reference = [np.random.default_rng((21, i)) for i in range(count)]
        flags = np.random.default_rng(22)
        # Uniforms each buffer holds and has handed out, to count the reads
        # that straddle a refill (part old buffer, part fresh draws).
        held, used = [0] * count, [0] * count
        straddles = 0
        for _ in range(1500):
            tx = flags.random(count) < 0.6
            q = flags.random(count)
            n = int(tx.sum())
            for i in np.flatnonzero(tx):
                left = held[i] - used[i]
                if left < n:
                    straddles += left > 0
                    held[i] += max(n, chunk)
                used[i] += n
            received, collided = resolve_slot(cfg, tx, q, buffered)
            expected_collided, decoded = self.reference_slot(cfg, tx, q, reference)
            assert np.array_equal(collided, expected_collided)
            assert np.array_equal(received, tx & ~expected_collided & decoded)
        assert straddles >= 5

    def test_reads_longer_than_a_chunk(self):
        stream = BufferedUniforms(np.random.default_rng(3), 2)
        draws = np.concatenate([stream.random(n) for n in (1, 5, 2, 7, 1)])
        assert np.array_equal(draws, np.random.default_rng(3).random(16))


def reception_probability(z, q, collision_prob: float) -> float:
    """Node 0's analytic reception probability for one slot."""
    return per_slot_reception(np.array([z]), np.array([q]), collision_prob)[0, 0]


class TestReceptionProbability:
    def test_direct_product(self):
        assert reception_probability([1.0, 1.0], [1.0, 0.3], 0.25) == pytest.approx(0.75)

    def test_no_transmission(self):
        assert reception_probability([0.0, 0.9], [1.0, 1.0], 0.25) == 0.0

    def test_zero_factor_recomputed_exactly(self):
        # q_c * z_0 = 1 zeroes node 0's damping factor: node 0 keeps the
        # product of the other factors (0.5), node 1 always collides (0).
        got = per_slot_reception(np.array([[1.0, 0.5]]), np.array([[1.0, 1.0]]), 1.0)
        assert np.array_equal(got, [[0.5, 0.0]])

    def test_against_monte_carlo(self):
        cfg = make_config(collision_prob=0.25)
        z = np.array([0.4446, 0.3558])
        rng = np.random.default_rng(11)
        # mean decode probability under the default curve
        h = rng.exponential(2.0, 200_000)
        q_mean = float(cfg.decode(h).mean())
        expected = reception_probability(z, [q_mean, q_mean], 0.25)
        n = 200_000
        tx = rng.random((n, 2)) < z
        collide = (rng.random(n) < 0.25) & tx[:, 1]
        decode = rng.random(n) < q_mean
        got = np.mean(tx[:, 0] & ~collide & decode)
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert abs(got - expected) <= 3 * sigma + 1e-12

    @given(st.integers(min_value=100, max_value=2000))
    def test_empirical_rate_converges(self, n):
        cfg = make_config(collision_prob=0.3)
        rng = np.random.default_rng(n)
        z = np.array([0.6, 0.4])
        q = np.array([0.8, 0.7])
        expected = reception_probability(z, q, 0.3)
        hits = 0
        for _ in range(n):
            tx = rng.random(2) < z
            hits += int(resolve_slot(cfg, tx, q, [rng] * 2)[0][0])
        assert abs(hits / n - expected) <= 4 / np.sqrt(n)
