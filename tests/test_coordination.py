import numpy as np
import pytest

from ehctrl.coordination import (
    AvailabilityDecision,
    AvailabilitySchedule,
    DualMailbox,
    advance_availability,
    exchange_duals,
)
from ehctrl.errors import ConfigError
from ehctrl.scheduler import SchedulerParams, apply_dual_step


def make_nu(count, fill):
    """Multiplier matrix with node j's row set to fill(j, i) for each column i."""
    return np.array([[fill(j, i) for i in range(count)] for j in range(count)], dtype=float)


def rngs(count, seed=0):
    return [np.random.default_rng((seed, k)) for k in range(count)]


def staleness(mailbox, t):
    """Slot lag of every off-diagonal pair's snapshot during slot t."""
    return (t - mailbox.slots)[~np.eye(mailbox.count, dtype=bool)]


def uniforms(streams):
    """One slot's availability draws, one per node stream."""
    return np.array([rng.random() for rng in streams])


class TestSchedule:
    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            AvailabilitySchedule(mode="sometimes")
        with pytest.raises(ConfigError):
            AvailabilitySchedule(mode="random", prob=0.0)
        with pytest.raises(ConfigError):
            AvailabilitySchedule(staleness_bound=0)

    def test_always_on_exchanges_every_pair(self):
        mailbox = DualMailbox(3)
        schedule = AvailabilitySchedule(mode="always-on")
        for t in range(5):
            decision = advance_availability(schedule, t, None, [False] * 3, mailbox)
            assert decision.available is None  # no node is ever masked
            off_diag = decision.exchange[~np.eye(3, dtype=bool)]
            assert off_diag.all()
            exchange_duals(mailbox, decision, make_nu(3, lambda j, i: t), t)
            assert staleness(mailbox, t).max() <= 1


class TestStalenessBounds:
    def test_random_mode_scan(self):
        bound = 10
        schedule = AvailabilitySchedule(mode="random", prob=0.5, staleness_bound=bound)
        mailbox = DualMailbox(2)
        streams = rngs(2, seed=4)
        worst = 0
        for t in range(10_000):
            worst = max(worst, int(staleness(mailbox, t).max()))
            decision = advance_availability(
                schedule, t, uniforms(streams), [False, False], mailbox
            )
            exchange_duals(mailbox, decision, make_nu(2, lambda j, i: t), t)
        assert worst <= bound

    def test_piggyback_forced_refresh_at_bound(self):
        bound = 10
        schedule = AvailabilitySchedule(mode="piggyback", staleness_bound=bound)
        mailbox = DualMailbox(2)
        refreshed_at = []
        for t in range(15):  # node 2 stays silent throughout
            decision = advance_availability(schedule, t, None, [False, False], mailbox)
            if decision.exchange[0, 1]:
                refreshed_at.append(t)
            exchange_duals(mailbox, decision, make_nu(2, lambda j, i: t), t)
        assert refreshed_at == [bound]  # fires exactly when staleness hits the bound

    def test_piggyback_shares_on_transmission(self):
        schedule = AvailabilitySchedule(mode="piggyback", staleness_bound=50)
        mailbox = DualMailbox(2)
        decision = advance_availability(schedule, 0, None, [False, True], mailbox)
        assert decision.exchange[0, 1] and not decision.exchange[1, 0]
        # piggyback nodes stay capable of computing every slot
        assert decision.available is None


class TestMailbox:
    def test_snapshot_is_receiver_column(self):
        mailbox = DualMailbox(2)
        duals = make_nu(2, lambda j, i: 10 * j + i)
        decision = AvailabilityDecision(
            available=np.ones(2, dtype=bool),
            exchange=~np.eye(2, dtype=bool),
        )
        exchange_duals(mailbox, decision, duals, t=3)
        # receiver 0 holds nu_{1,0} = 10, receiver 1 holds nu_{0,1} = 1
        assert mailbox.values[0, 1] == 10.0
        assert mailbox.values[1, 0] == 1.0
        assert np.all(np.diagonal(mailbox.values) == 0.0)
        assert mailbox.slots[0, 1] == 3

    def test_unavailable_sender_leaves_mailbox_untouched(self):
        mailbox = DualMailbox(2)
        decision = AvailabilityDecision(
            available=np.array([True, False]),
            exchange=np.array([[False, False], [True, False]]),
        )
        exchange_duals(mailbox, decision, make_nu(2, lambda j, i: 7.0), t=5)
        assert mailbox.values[0, 1] == 0.0 and mailbox.slots[0, 1] == 0
        assert mailbox.values[1, 0] == 7.0 and mailbox.slots[1, 0] == 5

    def test_values_are_historical_truths(self):
        schedule = AvailabilitySchedule(mode="random", prob=0.4, staleness_bound=8)
        mailbox = DualMailbox(2)
        streams = rngs(2, seed=9)
        history = {}
        exchanged = set()
        for t in range(500):
            duals = make_nu(2, lambda j, i: np.sin(0.1 * t + j) + 2.0 + i)
            history[t] = duals
            decision = advance_availability(
                schedule, t, uniforms(streams), [False, False], mailbox
            )
            exchange_duals(mailbox, decision, duals, t)
            exchanged.update(
                (i, j) for i in range(2) for j in range(2) if decision.exchange[i, j]
            )
            for i, j in exchanged:
                stamp = int(mailbox.slots[i, j])
                assert mailbox.values[i, j] == history[stamp][j][i]

    def test_alternating_availability_staleness_pattern(self):
        mailbox = DualMailbox(2)
        observed = []
        for t in range(1, 9):
            observed.append(int(t - mailbox.slots[0, 1]))
            if t % 2 == 0:  # exchange at the end of even slots
                decision = AvailabilityDecision(
                    available=np.ones(2, dtype=bool),
                    exchange=~np.eye(2, dtype=bool),
                )
                exchange_duals(mailbox, decision, make_nu(2, lambda j, i: t), t)
        # staleness during successive slots alternates between 1 and 2
        assert observed[2:] == [1, 2, 1, 2, 1, 2]


class TestSubgradientMask:
    """The dual step freezes multiplier column j while node j is unavailable."""

    @staticmethod
    def step(available, grads):
        params = SchedulerParams(epsilon=1.0, nu_bar=19.0, y_bar=25.0,
                                 p=np.array([0.3, 0.3]), collision_prob=0.25)
        stepped = apply_dual_step(np.full(2, 5.0), np.full((2, 2), 5.0), np.full(2, 5.0),
                                  grads, params, available=available)
        return tuple(x - 5.0 for x in stepped)

    def test_passthrough_and_freeze(self):
        grads = (
            np.array([1.0, -1.0]),
            np.array([[0.5, -0.5], [0.25, 0.75]]),
            np.array([2.0, -2.0]),
        )
        phi, nu, beta = self.step(np.array([True, False]), grads)
        assert nu[0, 0] == 0.5 and nu[0, 1] == 0.0
        assert nu[1, 0] == 0.25 and nu[1, 1] == 0.0
        # phi and beta always pass through
        assert phi[0] == 1.0 and beta[1] == -2.0

    def test_always_on_is_identity(self):
        grads = (np.array([0.3, 0.3]), np.array([[1.0, 2.0], [1.0, 2.0]]), np.array([0.1, 0.1]))
        for available in (None, np.ones(2, dtype=bool)):
            _, nu, _ = self.step(available, grads)
            assert np.array_equal(nu, grads[1])
